"""LMI problem container and builder utilities.

A problem holds k scalar decision variables y and a list of symmetric blocks
F0 + sum_i y_i F_i >= 0; the solver minimizes c.T y subject to all blocks.

A block is declared whole with ``new_block``: its constant F0, the dense
coefficient stack of the variables it touches (one matrix per variable, the
form SDPT3's block data takes) and an optional slack corner. A corner's
coefficients are implicit and every other coefficient is zero there, so the
stack holds only the columns right of the corner: a block of dimension
dc + n with a dc x dc corner stores O(dc n) numbers per variable. A block is
a stack of g members of one shape, each with its own variables and corner,
as SDPT3 stores block-diagonal data; a single block is a stack of one.

Symmetric matrix variables are packed in scaled upper-triangle order
(off-diagonals multiplied by sqrt(2)), which makes the packing an isometry
for the trace inner product. ``svec``/``smat`` implement that convention; they
run outside the solver's loop, so each forms the triangle's indices anew.
"""

from __future__ import annotations

import numpy as np

from ..errors import AsymmetricInput, DimensionMismatch
from ..matlin import sym

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
    """Pack a symmetric matrix; off-diagonals scaled by sqrt(2). A stack of
    matrices (..., d, d) gives the stack of packed vectors."""
    S = np.asarray(S, dtype=float)
    iu, ju = np.triu_indices(S.shape[-1])
    out = S[..., iu, ju]
    out[..., iu != ju] *= SQRT2
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
    """A stack of g blocks of one shape, F0[j] + sum_k y_{lv[j, k]} F[j, k] >= 0
    for each member j, in the form the solver consumes.

    A block with a slack corner of size dc (dc = 0 without one) makes each
    member's top-left dc x dc submatrix a packed symmetric variable, member j
    the j-th of the consecutive packs in y[corner], and every other
    coefficient is zero there. F[j, k] holds columns dc.. of member j's
    F_k, shape (d, d - dc): the border rows 0..dc and the symmetric trailing
    block below them, which determine F_k whole. F_flat is the same stack
    with each matrix flattened. The solver holds a corner's value apart from
    y, as a (g, dc, dc) stack Yc, never packed.
    """

    def __init__(self, F0: np.ndarray, lv: np.ndarray, F: np.ndarray, dc: int, v0: int):
        self.g, self.dim = F0.shape[:2]
        self.F0 = F0
        # C order throughout, so that every member takes the same kernels as
        # a single block: y[lv] keeps lv's layout.
        self.lv = np.ascontiguousarray(lv)
        self.F = np.ascontiguousarray(F)
        self.F_flat = self.F.reshape(self.g, lv.shape[1], self.dim * (self.dim - dc))
        self.dc = dc
        self.corner = slice(v0, v0 + self.g * svec_len(dc))

    def apply(self, y: np.ndarray) -> np.ndarray:
        """F0 + sum_i y_i F_i as a dense (g, d, d) stack."""
        Yc = smat(y[self.corner].reshape(self.g, svec_len(self.dc)), self.dc)
        return self.apply_lin(y, Yc) + self.F0

    def border(self, y: np.ndarray) -> np.ndarray:
        """Columns dc.. of sum_i y_i F_i over the ordinary variables."""
        B = y[self.lv][:, None] @ self.F_flat
        return B.reshape(self.g, self.dim, self.dim - self.dc)

    def apply_lin(self, y: np.ndarray, Yc: np.ndarray) -> np.ndarray:
        """sum_i y_i F_i without the constant term, with Yc in the corners.

        Search directions must use this form: going through apply() and
        subtracting F0 back leaves eps*|F0| noise on a result that can be
        orders of magnitude smaller, and the scaled-space congruence
        amplifies that noise by |W|^2.
        """
        dc = self.dc
        B = self.border(y)
        if not dc:
            return B
        S = np.empty((self.g, self.dim, self.dim))
        S[:, :, dc:] = B
        S[:, dc:, :dc] = B[:, :dc].swapaxes(1, 2)
        S[:, :dc, :dc] = Yc
        return S

    def pull(self, V: np.ndarray) -> np.ndarray:
        """sum(F[j, k] * V[j]) in lv's order, V a (g, d, d - dc) stack of
        columns dc..; `gather` sums them per variable."""
        return (self.F_flat @ V.reshape(self.g, -1, 1)).ravel()

    def adjoint(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """tr(F_i Z) for the block's ordinary coefficients, as `pull` gives
        them, and the corner part Z[:, :dc, :dc], Z a symmetric (g, d, d)
        stack. The border rows meet Z twice, once per triangle."""
        dc = self.dc
        Zb = Z[:, :, dc:].copy()
        Zb[:, :dc] *= 2.0
        return self.pull(Zb), Z[:, :dc, :dc]


def _asymmetric(D: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Which matrices of a stack break require_symmetric's max|D - D.T| <= 1e-12 (1 + max|S|)."""
    asym = np.abs(D - D.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return asym > 1e-12 * (1.0 + np.abs(S).max(axis=(-2, -1), initial=0.0))


def gather(lv: np.ndarray, vals, k: int) -> np.ndarray:
    """The length-k vector summing vals[b] at blocks[b].lv, lv the blocks' lv
    raveled and joined, by one bincount: a stack sums exactly as its members."""
    return np.bincount(lv, np.concatenate([np.zeros(0), *vals]), minlength=k)


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
        self._lv = np.zeros(0, np.intp)  # gather's index over every block
        self._corner_lv = self._lv  # and over the blocks with a corner
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

        A stack of g members has F0 (g, d, d), var (g, nv), one row of
        variables per member, and F (g, nv, d, d - dc); member j's corner
        follows member j - 1's. A position zero in every member is left out.
        """
        single = np.ndim(F0) == 2
        F0 = np.asarray([F0] if single else F0, dtype=float)
        if F0.ndim != 3 or not (len(F0) and F0.shape[1] == F0.shape[2] > 0):
            raise DimensionMismatch(f"F0 must be one or a stack of square blocks, got {F0.shape}")
        g, d = F0.shape[:2]
        var = np.asarray(var, dtype=np.intp)
        if var.ndim != 2 - single:
            raise DimensionMismatch(f"var must be {2 - single}-D")
        var = var.reshape(g, -1) if single else var
        if len(var) != g or np.any(np.diff(var) <= 0):
            raise DimensionMismatch("var must be strictly increasing, one row per member")
        if var.size and not (0 <= var.min() and var.max() < self.num_vars):
            raise DimensionMismatch(f"variable index out of range [0, {self.num_vars})")
        dc, var_start = (0, 0) if corner is None else corner
        if corner is not None and not (
            1 <= dc <= d and 0 <= var_start and var_start + g * svec_len(dc) <= self.num_vars
        ):
            raise DimensionMismatch(f"corner {corner} outside block dim {d} or the variables")
        F = np.zeros(var.shape + (d, d - dc)) if F is None else np.asarray(F, dtype=float)
        F = F[None] if single and F.ndim == 3 else F
        want = var.shape + (d, d - dc)
        if F.shape != want:
            raise DimensionMismatch(f"F shape {F.shape[single:]} != {want[single:]}")
        if not (np.all(np.isfinite(F0)) and np.all(np.isfinite(F))):
            raise ValueError("F0 or F contains non-finite entries")
        # require_symmetric's rule for each member's F0 and each coefficient below the corner
        bad = np.flatnonzero(_asymmetric(F0, F0))
        if bad.size:
            raise AsymmetricInput("F0" + ("" if single else f"[{bad[0]}]") + " is not symmetric")
        Fp = F[:, :, dc:]
        bad = var[_asymmetric(Fp, F)]
        if bad.size:
            raise AsymmetricInput(f"coefficient of variable {bad[0]} is not symmetric")
        keep = np.any(F != 0.0, axis=(0, 2, 3))
        F = np.concatenate((F[:, :, :dc], sym(Fp)), axis=2)[:, keep]
        block = _Block(sym(F0), var[:, keep], F, int(dc), int(var_start))
        twice = np.flatnonzero(self._corner[block.corner]) + block.corner.start
        if twice.size:
            raise DimensionMismatch(f"corner variables {twice.tolist()} declared twice")
        ordinary, corner_vars = self._ordinary.copy(), self._corner.copy()
        ordinary[block.lv] = corner_vars[block.corner] = True
        bad = np.flatnonzero(ordinary & corner_vars)[:4].tolist()
        if bad:
            raise DimensionMismatch(f"corner variables {bad} also appear as ordinary coefficients")
        self._blocks.append(block)
        self._lv = np.concatenate((self._lv, block.lv.ravel()))
        if dc:
            self._corner_lv = np.concatenate((self._corner_lv, block.lv.ravel()))
        self._ordinary, self._corner = ordinary, corner_vars
        return len(self._blocks) - 1

    # -- inspection -----------------------------------------------------------

    def block_dims(self) -> list[int]:
        """The dimension of each LMI, a stack's members one by one."""
        return [b.dim for b in self._blocks for _ in range(b.g)]

    def compiled(self) -> list[_Block]:
        """The blocks in the form the solver consumes."""
        return self._blocks

    def evaluate_blocks(self, y) -> list[np.ndarray]:
        """Dense F0 + sum_i y_i F_i of each LMI at the given y, a stack's
        members one by one, in block_dims' order."""
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape != (self.num_vars,):
            raise DimensionMismatch("y length does not match num_vars")
        return [S for cb in self._blocks for S in cb.apply(y)]

    def adjoint(self, Z_list) -> np.ndarray:
        """A*(Z): vector of sum_b tr(F_{b,i} Z_b), one symmetric Z_b per LMI
        in block_dims' order."""
        bounds = np.cumsum([0] + [cb.g for cb in self._blocks])
        Zs = [np.asarray(Z_list[i:j], dtype=float) for i, j in zip(bounds, bounds[1:])]
        g, corners = self.adjoint_split(Zs)
        for cb, Zc in zip(self._blocks, corners):
            g[cb.corner] += svec(Zc).ravel()
        return g

    def adjoint_split(self, Z_list) -> tuple[np.ndarray, list[np.ndarray]]:
        """A*(Z) for one (g, d, d) stack Z_b per block, with 0 in the corner
        entries, and each block's corner part as the (g, dc, dc) stack
        Z_b[:, :dc, :dc] (dc = 0 without a corner)."""
        parts = [cb.adjoint(Z) for cb, Z in zip(self._blocks, Z_list)]
        return gather(self._lv, [v for v, _ in parts], self.num_vars), [Zc for _, Zc in parts]
