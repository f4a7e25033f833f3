"""Counter-based Gaussian sampling for reproducible experiment data.

Each matrix draw gets its own stream id, and each column its own counter
block, so changing the number of columns never shifts earlier columns:
the first 30 columns of a 120-column draw equal the 30-column draw.
Gaussians come from Box-Muller on the raw uniform stream; that choice is
part of the format, so a port in another language can match draws by
reimplementing the same two steps over the same counters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["STREAM_STATE", "STREAM_INPUT", "STREAM_NOISE", "column_normals", "normal_matrix"]

STREAM_STATE = 0
STREAM_INPUT = 1
STREAM_NOISE = 2

# Arbitrary fixed key half; the other half is the user seed.
_KEY_CONST = 0x9E3779B97F4A7C15

# Philox4x64-10 (Salmon et al., SC 2011): multipliers, Weyl key increments
# and round count, as in numpy's Philox bit generator.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(a: np.ndarray, mult: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * mult."""
    b0, b1 = np.uint64(mult & 0xFFFFFFFF), np.uint64(mult >> 32)
    a0, a1 = a & _LO32, a >> _S32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _S32) + (p01 & _LO32) + (p10 & _LO32)
    hi = a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return hi, a * np.uint64(mult)


def _uniforms(seed: int, stream: int, columns: np.ndarray, count: int) -> np.ndarray:
    """count x len(columns) doubles in [0, 1). Column c holds what numpy's
    Generator(Philox(counter=[0, 0, c, stream], key=[seed, _KEY_CONST]))
    .random(count) yields: that generator encrypts counter [b+1, 0, c,
    stream] for its b-th block of four words, and here every block of
    every column goes through the ten rounds at once."""
    blocks = -(-count // 4)
    shape = (blocks, len(columns))
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64)[:, None], shape)
    x1 = np.zeros(shape, dtype=np.uint64)
    x2 = np.broadcast_to(np.asarray(columns, dtype=np.uint64)[None, :], shape)
    x3 = np.full(shape, stream, dtype=np.uint64)
    key = np.array([seed, _KEY_CONST], dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ key[0], lo1, hi0 ^ x3 ^ key[1], lo0
    words = np.stack([x0, x1, x2, x3], axis=1).reshape(4 * blocks, shape[1])[:count]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _normals(seed: int, stream: int, columns: np.ndarray, count: int) -> np.ndarray:
    """count x len(columns) standard normals by Box-Muller over
    2 * ceil(count / 2) uniforms per column: the first half give the
    radii, the second half the angles."""
    npairs = (count + 1) // 2
    u = _uniforms(seed, stream, columns, 2 * npairs)
    u1 = 1.0 - u[:npairs]  # maps [0, 1) onto (0, 1], keeps log finite
    u2 = u[npairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty((2 * npairs, len(columns)))
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:count]


def column_normals(seed: int, stream: int, column: int, count: int) -> np.ndarray:
    """Standard normal draws for one (stream, column) pair."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return _normals(seed, stream, np.array([column]), count)[:, 0]


def normal_matrix(seed: int, stream: int, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
    """rows x cols matrix with independent N(0, std^2) entries; column c
    depends only on (seed, stream, c), so the result is prefix-stable in
    cols."""
    if std < 0:
        raise ValueError("std must be non-negative")
    return std * _normals(seed, stream, np.arange(cols), rows)
