"""Reference experiment: plant, exploration protocol, and rollouts.

The reference plant is a weakly coupled two-state system with a single
actuator. Exploration pushes the state along a preferred direction v and
runs a barely stabilizing gain on top of it, so the data is rich along v
and poor elsewhere; that imbalance is what the regularized synthesis
programs are designed to expose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datamodel import Dataset
from ..errors import DimensionMismatch
from ..matlin import as_matrix
from . import rng

__all__ = [
    "ReferenceExperimentConfig",
    "gen_reference_data",
    "portrait_trajectories",
    "simulate_closed_loop",
]


def _default_a() -> np.ndarray:
    return np.array([[0.525, -0.325], [-0.325, 0.525]])


def _default_b() -> np.ndarray:
    return np.array([[1.0], [0.0]])


def _default_q() -> np.ndarray:
    return np.eye(2)


def _default_r() -> np.ndarray:
    return np.array([[0.1]])


def _default_v() -> np.ndarray:
    return np.array([-1.0, 1.0])


def _default_k_expl() -> np.ndarray:
    return np.array([[-2.8, 6.8]])


@dataclass
class ReferenceExperimentConfig:
    """Everything that determines one generated dataset."""

    a: np.ndarray = field(default_factory=_default_a)
    b: np.ndarray = field(default_factory=_default_b)
    q: np.ndarray = field(default_factory=_default_q)
    r: np.ndarray = field(default_factory=_default_r)
    noise_std: float = 0.1
    ell: int = 30
    v: np.ndarray = field(default_factory=_default_v)
    offset_scale: float = 10.0
    k_expl: np.ndarray = field(default_factory=_default_k_expl)
    x_rnd_std: float = 1.0
    u_rnd_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.a = as_matrix(self.a, "a")
        self.b = as_matrix(self.b, "b")
        self.q = as_matrix(self.q, "q")
        self.r = as_matrix(self.r, "r")
        self.v = np.asarray(self.v, dtype=float).reshape(-1)
        self.k_expl = as_matrix(self.k_expl, "k_expl")
        n = self.a.shape[0]
        m = self.b.shape[1]
        if self.a.shape != (n, n) or self.b.shape[0] != n:
            raise DimensionMismatch("a must be square and b must match its row count")
        if self.q.shape != (n, n) or self.r.shape != (m, m):
            raise DimensionMismatch("q and r must match the state and input sizes")
        if self.v.shape != (n,) or self.k_expl.shape != (m, n):
            raise DimensionMismatch("v and k_expl must match the state size")
        if min(self.noise_std, self.x_rnd_std, self.u_rnd_std) < 0:
            raise DimensionMismatch("standard deviations must be non-negative")
        if self.ell < n + m:
            raise DimensionMismatch(f"ell={self.ell} below n+m={n + m}")
        rng._check_seed(self.seed, DimensionMismatch)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


def gen_reference_data(cfg: ReferenceExperimentConfig) -> Dataset:
    """Roll out the exploration protocol once.

    Every column of x0 is offset_scale * v plus an independent standard
    normal draw (scaled by x_rnd_std); inputs are the exploration gain on
    x0 plus input dither; successors follow the plant plus process noise.
    Columns are prefix-stable in ell for a fixed seed.
    """
    n, m, ell, seed = cfg.n, cfg.m, cfg.ell, cfg.seed
    x0 = cfg.offset_scale * cfg.v[:, None] + rng.normal_matrix(
        seed, rng.STREAM_STATE, n, ell, cfg.x_rnd_std
    )
    u0 = cfg.k_expl @ x0 + rng.normal_matrix(seed, rng.STREAM_INPUT, m, ell, cfg.u_rnd_std)
    x1 = cfg.a @ x0 + cfg.b @ u0 + rng.normal_matrix(seed, rng.STREAM_NOISE, n, ell, cfg.noise_std)
    return Dataset(x0=x0, u0=u0, x1=x1)


def simulate_closed_loop(a_cl: np.ndarray, x0, steps: int) -> np.ndarray:
    """Iterate x(k+1) = a_cl x(k) without disturbance.

    Returns an n x (steps + 1) array whose first column is x0.
    """
    a_cl = as_matrix(a_cl, "a_cl")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if a_cl.shape != (x.size, x.size):
        raise DimensionMismatch("a_cl must be square and match x0")
    if steps < 1:
        raise DimensionMismatch("steps must be at least 1")
    out = np.empty((x.size, steps + 1))
    out[:, 0] = x
    for k in range(steps):
        out[:, k + 1] = a_cl @ out[:, k]
    return out


# Start points of every phase portrait: four on the axes, two on the diagonal.
_PORTRAIT_STARTS = ((9.0, 0.0), (-9.0, 0.0), (0.0, 9.0), (0.0, -9.0), (6.5, 6.5), (-6.5, -6.5))


def portrait_trajectories(a_cl: np.ndarray) -> list[np.ndarray]:
    """The 25-step trajectories of x -> a_cl x that every phase portrait
    overlays on its field, one per start point."""
    return [simulate_closed_loop(a_cl, s, steps=25) for s in _PORTRAIT_STARTS]
