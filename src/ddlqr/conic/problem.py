"""LMI problem container and builder utilities.

A problem holds k scalar decision variables y and a list of symmetric blocks
F0 + sum_i y_i F_i >= 0; the solver minimizes c.T y subject to all blocks.

A block is declared whole with ``new_block``: its constant F0, the dense
coefficient stack of the variables it touches (one matrix per variable, the
form SDPT3's block data takes) and an optional slack corner. A corner's
coefficients are implicit and every other coefficient is zero there, so the
stack holds only the columns right of the corner: a block of dimension
ell + n with an ell x ell corner stores O(ell n) numbers per variable.

Symmetric matrix variables are packed in scaled upper-triangle order
(off-diagonals multiplied by sqrt(2)), which makes the packing an isometry
for the trace inner product. ``svec``/``smat`` implement that convention; they
run outside the solver's loop, so each forms the triangle's indices anew.
"""

from __future__ import annotations

import numpy as np

from ..errors import AsymmetricInput, DimensionMismatch
from ..matlin import require_symmetric

SQRT2 = float(np.sqrt(2.0))

__all__ = [
    "SQRT2",
    "svec_len",
    "svec",
    "smat",
    "LmiProblem",
]


def svec_len(d: int) -> int:
    return d * (d + 1) // 2


def svec(S: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix; off-diagonals scaled by sqrt(2)."""
    S = np.asarray(S, dtype=float)
    iu, ju = np.triu_indices(S.shape[0])
    out = S[iu, ju]
    out[iu != ju] *= SQRT2
    return out


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec; a stack of packed vectors (..., svec_len(d)) gives the
    stack of matrices (..., d, d)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (svec_len(d),):
        raise DimensionMismatch(f"svec vector length {v.shape} does not match dim {d}")
    S = np.zeros(v.shape[:-1] + (d, d))
    iu, ju = np.triu_indices(d)
    vals = np.where(iu != ju, v / SQRT2, v)
    S[..., iu, ju] = vals
    S[..., ju, iu] = vals
    return S


class _Block:
    """One block F0 + sum_k y_{lv[k]} F_k >= 0 in the form the solver consumes.

    A block with a slack corner of size dc (dc = 0 without one) makes its
    top-left dc x dc submatrix the packed symmetric variable y[corner], and
    every other coefficient is zero there. F[k] holds columns dc.. of F_k,
    shape (d, d - dc): the border rows 0..dc and the symmetric trailing
    block below them, which determine F_k whole. F_flat is the same stack
    with each matrix flattened. The solver holds a corner's value apart from
    y, as a dc x dc matrix Yc (0 x 0 without a corner), never packed.
    """

    def __init__(self, F0: np.ndarray, lv: np.ndarray, F: np.ndarray, dc: int, v0: int):
        self.dim = F0.shape[0]
        self.F0 = F0
        self.lv = lv
        self.F = F
        self.F_flat = F.reshape(lv.size, self.dim * (self.dim - dc))
        self.dc = dc
        self.corner = slice(v0, v0 + svec_len(dc))

    def apply(self, y: np.ndarray) -> np.ndarray:
        """F0 + sum_i y_i F_i as a dense symmetric matrix."""
        return self.apply_lin(y, smat(y[self.corner], self.dc)) + self.F0

    def apply_lin(self, y: np.ndarray, Yc: np.ndarray) -> np.ndarray:
        """sum_i y_i F_i without the constant term, with Yc in the corner.

        Search directions must use this form: going through apply() and
        subtracting F0 back leaves eps*|F0| noise on a result that can be
        orders of magnitude smaller, and the scaled-space congruence
        amplifies that noise by |W|^2.
        """
        dc = self.dc
        B = (y[self.lv] @ self.F_flat).reshape(self.dim, self.dim - dc)
        if not dc:
            return B
        S = np.empty((self.dim, self.dim))
        S[:, dc:] = B
        S[dc:, :dc] = B[:dc].T
        S[:dc, :dc] = Yc
        return S

    def adjoint(self, Z: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g_i += tr(F_i Z) for the block's ordinary coefficients, Z symmetric;
        returns Z[:dc, :dc]. The border rows meet Z twice, once per triangle."""
        dc = self.dc
        Zb = Z[:, dc:].copy()
        Zb[:dc] *= 2.0
        g[self.lv] += self.F_flat @ Zb.ravel()
        return Z[:dc, :dc]


class LmiProblem:
    """Container for min c.T y subject to F0_b + sum_i y_i F_{b,i} >= 0.

    `new_block` checks and records the variables' split into ordinary and
    corner (slack only) ones: a block whose corner overlaps another corner or
    any ordinary coefficient raises DimensionMismatch and changes nothing.
    """

    def __init__(self, objective):
        c = np.asarray(objective, dtype=float).reshape(-1)
        if not np.all(np.isfinite(c)):
            raise ValueError("objective contains non-finite entries")
        self.objective = c.copy()
        self.num_vars = c.size
        self._blocks: list[_Block] = []
        self._ordinary = np.zeros(c.size, dtype=bool)
        self._corner = np.zeros(c.size, dtype=bool)

    # -- construction ---------------------------------------------------------

    def new_block(self, F0, var=(), F=None, corner=None) -> int:
        """Declare the block F0 + sum_k y_{var[k]} F_k >= 0 and return its id.

        corner = (dc, var_start) makes the top-left dc x dc submatrix a packed
        symmetric slack variable occupying vars var_start .. var_start +
        svec_len(dc) - 1; without one dc = 0. var is strictly increasing and F
        has shape (len(var), d, d - dc): columns dc.. of each F_k, whose rows
        dc.. are symmetric. F_k is zero in the corner, so these columns give
        it whole. A variable whose coefficient is all zero is left out of the
        block.
        """
        F0 = require_symmetric(F0, "F0")
        d = F0.shape[0]
        if d < 1:
            raise DimensionMismatch("block dim must be >= 1")
        var = np.asarray(var, dtype=np.intp)
        if var.ndim != 1 or np.any(np.diff(var) <= 0):
            raise DimensionMismatch("var must be a strictly increasing 1-D array")
        if var.size and not (0 <= var[0] and var[-1] < self.num_vars):
            raise DimensionMismatch(f"variable index out of range [0, {self.num_vars})")
        dc, var_start = (0, 0) if corner is None else corner
        if corner is not None and not (
            1 <= dc <= d and 0 <= var_start and var_start + svec_len(dc) <= self.num_vars
        ):
            raise DimensionMismatch(f"corner {corner} outside block dim {d} or the variables")
        F = np.zeros((0, d, d - dc)) if F is None else np.asarray(F, dtype=float)
        if F.shape != (var.size, d, d - dc):
            raise DimensionMismatch(f"F shape {F.shape} != {(var.size, d, d - dc)}")
        if not np.all(np.isfinite(F)):
            raise ValueError("F contains non-finite entries")
        Fp = F[:, dc:]
        Ft = Fp.transpose(0, 2, 1)
        # require_symmetric's rule, per coefficient: max|F - F.T| <= 1e-12 (1 + max|F|)
        asym = np.abs(Fp - Ft).max(axis=(1, 2), initial=0.0)
        bad = var[asym > 1e-12 * (1.0 + np.abs(F).max(axis=(1, 2), initial=0.0))]
        if bad.size:
            raise AsymmetricInput(f"coefficient of variable {bad[0]} is not symmetric")
        keep = np.any(F != 0.0, axis=(1, 2))
        F = np.concatenate((F[:, :dc], 0.5 * (Fp + Ft)), axis=1)[keep]
        block = _Block(F0, var[keep], F, int(dc), int(var_start))
        twice = np.flatnonzero(self._corner[block.corner]) + block.corner.start
        if twice.size:
            raise DimensionMismatch(f"corner variables {twice.tolist()} declared twice")
        ordinary, corner_vars = self._ordinary.copy(), self._corner.copy()
        ordinary[block.lv] = corner_vars[block.corner] = True
        bad = np.flatnonzero(ordinary & corner_vars)[:4].tolist()
        if bad:
            raise DimensionMismatch(f"corner variables {bad} also appear as ordinary coefficients")
        self._blocks.append(block)
        self._ordinary, self._corner = ordinary, corner_vars
        return len(self._blocks) - 1

    # -- inspection -----------------------------------------------------------

    def block_dims(self) -> list[int]:
        return [b.dim for b in self._blocks]

    def compiled(self) -> list[_Block]:
        """The blocks in the form the solver consumes."""
        return self._blocks

    def evaluate_blocks(self, y) -> list[np.ndarray]:
        """Dense S_b = F0_b + sum_i y_i F_{b,i} at the given y."""
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape != (self.num_vars,):
            raise DimensionMismatch("y length does not match num_vars")
        return [cb.apply(y) for cb in self._blocks]

    def adjoint(self, Z_list) -> np.ndarray:
        """A*(Z): vector of sum_b tr(F_{b,i} Z_b)."""
        g, corners = self.adjoint_split(Z_list)
        for cb, Zc in zip(self._blocks, corners):
            g[cb.corner] += svec(Zc)
        return g

    def adjoint_split(self, Z_list) -> tuple[np.ndarray, list[np.ndarray]]:
        """A*(Z) with 0 in the corner entries, and each block's corner part
        as the dc x dc matrix Z_b[:dc, :dc] (0 x 0 without a corner)."""
        g = np.zeros(self.num_vars)
        return g, [cb.adjoint(Z, g) for cb, Z in zip(self._blocks, Z_list)]
