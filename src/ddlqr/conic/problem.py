"""LMI problem container and builder utilities.

A problem holds k scalar decision variables y and a list of symmetric blocks
F0 + sum_i y_i F_i >= 0; the solver minimizes c.T y subject to all blocks.

A block is declared whole with ``new_block``: its constant F0, the dense
coefficient stack of the variables it touches (one d x d matrix per
variable, the form SDPT3's block data takes) and an optional slack corner.
Column families are added to a block afterwards. Families and the corner
keep their closed forms, so the solver never builds an operator of the size
of a column family or a corner.

Symmetric matrix variables are packed in scaled upper-triangle order
(off-diagonals multiplied by sqrt(2)), which makes the packing an isometry
for the trace inner product. ``svec``/``smat`` implement that convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import AsymmetricInput, DimensionMismatch
from ..matlin import as_matrix, require_symmetric

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


@lru_cache(maxsize=64)
def _triu(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and off-diagonal mask of the upper triangle (read-only:
    the cache hands the same arrays to every caller)."""
    iu, ju = np.triu_indices(d)
    out = (iu, ju, iu != ju)
    for a in out:
        a.setflags(write=False)
    return out


def svec(S: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix; off-diagonals scaled by sqrt(2)."""
    S = np.asarray(S, dtype=float)
    iu, ju, off = _triu(S.shape[0])
    out = S[iu, ju]
    out[off] *= SQRT2
    return out


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec; a stack of packed vectors (..., svec_len(d)) gives the
    stack of matrices (..., d, d)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (svec_len(d),):
        raise DimensionMismatch(f"svec vector length {v.shape} does not match dim {d}")
    S = np.zeros(v.shape[:-1] + (d, d))
    iu, ju, off = _triu(d)
    vals = np.where(off, v / SQRT2, v)
    S[..., iu, ju] = vals
    S[..., ju, iu] = vals
    return S


@dataclass
class _Family:
    """Column family: for each (t, q), F_{vars[t,q]} += C[:,t] e_q~.T + e_q~ C[:,t].T,
    with e_q~ the basis vector at column col0 + q."""

    C: np.ndarray  # (d, T)
    col0: int
    varmat: np.ndarray  # (T, nq) int


@dataclass
class _Corner:
    """Slack corner: the top-left dc x dc submatrix is a free symmetric matrix
    variable occupying vars var_start .. var_start + svec_len(dc) - 1 in
    svec order, with the standard packed coefficients (so the corner columns
    of the svec'd coefficient matrix form an identity)."""

    dc: int
    var_start: int


@dataclass
class _Block:
    dim: int
    F0: np.ndarray
    lv: np.ndarray  # (n_e,) strictly increasing variable indices
    F: np.ndarray  # (n_e, d, d) coefficient of each, none all zero
    corner: _Corner | None
    families: list = field(default_factory=list)


class _CompiledBlock:
    """Frozen per-block arrays the solver consumes.

    F[k] is the full d x d coefficient of variable lv[k] as the block was
    declared, and F_flat the same stack with each matrix flattened. The
    block's ordinary variables are gv = lv followed by each family's varmat
    in row-major order (at fam_slices of gv); they must be distinct, so every
    coupling of the block lands at its own position of the Schur complement.
    """

    def __init__(self, blk: _Block):
        d = blk.dim
        self.dim = d
        self.F0 = blk.F0
        self.corner = blk.corner
        self.families = blk.families
        self.lv = blk.lv
        self.F = blk.F
        self.F_flat = blk.F.reshape(-1, d * d)

        self.gv = np.concatenate([self.lv] + [f.varmat.ravel() for f in self.families])
        ends = self.lv.size + np.cumsum([f.varmat.size for f in self.families], dtype=int)
        self.fam_slices = [slice(e - f.varmat.size, e) for f, e in zip(self.families, ends)]
        if np.unique(self.gv).size != self.gv.size:
            raise DimensionMismatch(
                "a variable appears twice among one block's entries and column families"
            )

    def vars_touched(self) -> np.ndarray:
        if self.corner is None:
            return self.gv
        c = self.corner
        return np.concatenate([self.gv, c.var_start + np.arange(svec_len(c.dc))])

    def apply(self, y: np.ndarray) -> np.ndarray:
        """F0 + sum_i y_i F_i as a dense symmetric matrix."""
        return self.apply_lin(y) + self.F0

    def apply_lin(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i F_i without the constant term.

        Search directions must use this form: going through apply() and
        subtracting F0 back leaves eps*|F0| noise on a result that can be
        orders of magnitude smaller, and the scaled-space congruence
        amplifies that noise by |W|^2.
        """
        S = (y[self.lv] @ self.F_flat).reshape(self.dim, self.dim)
        for fam in self.families:
            nq = fam.varmat.shape[1]
            CY = fam.C @ y[fam.varmat]  # (d, nq)
            S[:, fam.col0 : fam.col0 + nq] += CY
            S[fam.col0 : fam.col0 + nq, :] += CY.T
        if self.corner is not None:
            dc, v0 = self.corner.dc, self.corner.var_start
            S[:dc, :dc] += smat(y[v0 : v0 + svec_len(dc)], dc)
        return S

    def adjoint(self, Z: np.ndarray, g: np.ndarray) -> None:
        """g_i += tr(F_i Z) for this block's coefficients; Z symmetric."""
        g[self.lv] += self.F_flat @ Z.ravel()
        for fam in self.families:
            nq = fam.varmat.shape[1]
            g[fam.varmat.ravel()] += 2.0 * (fam.C.T @ Z[:, fam.col0 : fam.col0 + nq]).ravel()
        if self.corner is not None:
            dc, v0 = self.corner.dc, self.corner.var_start
            g[v0 : v0 + svec_len(dc)] += svec(Z[:dc, :dc])


class LmiProblem:
    """Container for min c.T y subject to F0_b + sum_i y_i F_{b,i} >= 0."""

    def __init__(self, objective):
        c = np.asarray(objective, dtype=float).reshape(-1)
        if not np.all(np.isfinite(c)):
            raise ValueError("objective contains non-finite entries")
        self.objective = c.copy()
        self.num_vars = c.size
        self._blocks: list[_Block] = []
        self._compiled: list[_CompiledBlock] | None = None

    # -- construction ---------------------------------------------------------

    def new_block(self, F0, var=(), F=None, corner=None) -> int:
        """Declare the block F0 + sum_k y_{var[k]} F[k] >= 0 and return its id.

        var is strictly increasing and F has shape (len(var), d, d), each
        F[k] symmetric; a variable whose coefficient is all zero is left out
        of the block. corner = (dc, var_start) makes the top-left dc x dc
        submatrix a packed symmetric slack variable occupying vars
        var_start .. var_start + svec_len(dc) - 1.
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
        F = np.zeros((0, d, d)) if F is None else np.asarray(F, dtype=float)
        if F.shape != (var.size, d, d):
            raise DimensionMismatch(f"F shape {F.shape} != {(var.size, d, d)}")
        if not np.all(np.isfinite(F)):
            raise ValueError("F contains non-finite entries")
        Ft = F.transpose(0, 2, 1)
        # require_symmetric's rule, per coefficient: max|F - F.T| <= 1e-12 (1 + max|F|)
        asym = np.abs(F - Ft).max(axis=(1, 2), initial=0.0)
        bad = var[asym > 1e-12 * (1.0 + np.abs(F).max(axis=(1, 2), initial=0.0))]
        if bad.size:
            raise AsymmetricInput(f"coefficient of variable {bad[0]} is not symmetric")
        keep = np.any(F != 0.0, axis=(1, 2))
        if corner is not None:
            dc, var_start = corner
            if not (1 <= dc <= d and 0 <= var_start and var_start + svec_len(dc) <= self.num_vars):
                raise DimensionMismatch(f"corner {corner} outside block dim {d} or the variables")
            corner = _Corner(dc=int(dc), var_start=int(var_start))
        self._blocks.append(_Block(d, F0, var[keep], 0.5 * (F + Ft)[keep], corner))
        self._compiled = None
        return len(self._blocks) - 1

    def add_column_family(self, bid: int, C, col0: int, varmat) -> None:
        """For each (t, q): F_{varmat[t,q]} += C[:,t] e~.T + e~ C[:,t].T with
        e~ the basis vector at column col0 + q."""
        blk = self._blocks[bid]
        C = as_matrix(C, "C")
        varmat = np.asarray(varmat, dtype=np.intp)
        if varmat.ndim != 2:
            raise DimensionMismatch("varmat must be 2-D (T, nq)")
        if C.shape != (blk.dim, varmat.shape[0]):
            raise DimensionMismatch(
                f"C shape {C.shape} incompatible with block dim {blk.dim} and T {varmat.shape[0]}"
            )
        nq = varmat.shape[1]
        if not (0 <= col0 and col0 + nq <= blk.dim):
            raise DimensionMismatch("family columns fall outside the block")
        if varmat.size and (varmat.min() < 0 or varmat.max() >= self.num_vars):
            raise DimensionMismatch("family variable index out of range")
        blk.families.append(_Family(C=C.copy(), col0=int(col0), varmat=varmat.copy()))
        self._compiled = None

    # -- inspection -----------------------------------------------------------

    def block_dims(self) -> list[int]:
        return [b.dim for b in self._blocks]

    def compiled(self) -> list[_CompiledBlock]:
        if self._compiled is None:
            self._compiled = [_CompiledBlock(b) for b in self._blocks]
            self._validate_corners(self._compiled)
        return self._compiled

    def _validate_corners(self, compiled: list[_CompiledBlock]) -> None:
        corner_vars: set[int] = set()
        for cb in compiled:
            if cb.corner is None:
                continue
            vs = range(cb.corner.var_start, cb.corner.var_start + svec_len(cb.corner.dc))
            overlap = corner_vars.intersection(vs)
            if overlap:
                raise DimensionMismatch(f"corner variables {sorted(overlap)} declared twice")
            corner_vars.update(vs)
        if not corner_vars:
            return
        for cb in compiled:
            bad = set(cb.gv.tolist()) & corner_vars
            if bad:
                raise DimensionMismatch(
                    f"corner variables {sorted(bad)[:4]} also appear as ordinary coefficients"
                )

    def evaluate_blocks(self, y) -> list[np.ndarray]:
        """Dense S_b = F0_b + sum_i y_i F_{b,i} at the given y."""
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape != (self.num_vars,):
            raise DimensionMismatch("y length does not match num_vars")
        return [cb.apply(y) for cb in self.compiled()]

    def adjoint(self, Z_list) -> np.ndarray:
        """A*(Z): vector of sum_b tr(F_{b,i} Z_b)."""
        g = np.zeros(self.num_vars)
        for cb, Z in zip(self.compiled(), Z_list):
            cb.adjoint(Z, g)
        return g

