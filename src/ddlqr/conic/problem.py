"""LMI problem container and builder utilities.

A problem holds k scalar decision variables y and a list of symmetric blocks
F0 + sum_i y_i F_i >= 0; the solver minimizes c.T y subject to all blocks.

A block is declared with ``new_block`` and filled with per-entry,
column-family and slack-corner declarations that record where coefficients
live: entries are compiled into one dense coefficient stack per block,
families and the corner keep their closed forms, so the solver never builds
an operator of the size of a column family or a corner.

Symmetric matrix variables are packed in scaled upper-triangle order
(off-diagonals multiplied by sqrt(2)), which makes the packing an isometry
for the trace inner product. ``svec``/``smat`` implement that convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import DimensionMismatch
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


# Appended to every block's entries, so a block without any still compiles.
_NO_ENTRIES = (np.empty(0, np.intp),) * 3 + (np.empty(0),)


@dataclass
class _Block:
    dim: int
    F0: np.ndarray
    entries: list = field(default_factory=list)  # (var, i, j, val) arrays per add_entry
    families: list = field(default_factory=list)
    corner: _Corner | None = None


class _CompiledBlock:
    """Frozen per-block arrays the solver consumes.

    The entry coefficients become one dense stack: F[k] is the full d x d
    coefficient of variable lv[k], with duplicate coordinates summed. The
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

        var, ii, jj, val = (np.concatenate(c) for c in zip(*blk.entries, _NO_ENTRIES))
        self.lv, loc = np.unique(var, return_inverse=True)
        off = ii != jj
        flat = np.concatenate([(loc * d + ii) * d + jj, ((loc * d + jj) * d + ii)[off]])
        weights = np.concatenate([val, val[off]])
        self.F_flat = np.bincount(flat, weights, self.lv.size * d * d).reshape(-1, d * d)
        self.F = self.F_flat.reshape(-1, d, d)

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

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise DimensionMismatch("num_vars must be non-negative")
        self.num_vars = int(num_vars)
        self.objective = np.zeros(self.num_vars)
        self._blocks: list[_Block] = []
        self._compiled: list[_CompiledBlock] | None = None

    # -- construction ---------------------------------------------------------

    def set_objective(self, c) -> None:
        c = np.asarray(c, dtype=float).reshape(-1)
        if c.shape != (self.num_vars,):
            raise DimensionMismatch(f"objective length {c.size} != num_vars {self.num_vars}")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective contains non-finite entries")
        self.objective = c.copy()
        self._compiled = None

    def new_block(self, dim: int) -> int:
        if dim < 1:
            raise DimensionMismatch("block dim must be >= 1")
        self._blocks.append(_Block(dim=int(dim), F0=np.zeros((dim, dim))))
        self._compiled = None
        return len(self._blocks) - 1

    def set_block_const(self, bid: int, F0) -> None:
        blk = self._blocks[bid]
        F0 = require_symmetric(F0, "F0")
        if F0.shape[0] != blk.dim:
            raise DimensionMismatch(f"F0 dim {F0.shape[0]} != block dim {blk.dim}")
        blk.F0 = F0
        self._compiled = None

    def add_entry(self, bid: int, var, i, j, val) -> None:
        """F_var += val * (E_ij + E_ji) for i != j, val * E_ii for i == j.

        Each argument is a scalar or a 1-D array; arrays of equal length add
        one entry per position, and scalars apply to every entry.
        """
        blk = self._blocks[bid]
        idx = (np.asarray(a, dtype=np.intp) for a in (var, i, j))
        try:
            var, i, j, val = np.broadcast_arrays(*idx, np.asarray(val, dtype=float))
        except ValueError as e:
            raise DimensionMismatch(f"entry arrays differ in length: {e}") from None
        if var.ndim > 1:
            raise DimensionMismatch("entry arguments must be scalars or 1-D arrays")
        if var.size and not (0 <= var.min() and var.max() < self.num_vars):
            raise DimensionMismatch(f"variable index out of range [0, {self.num_vars})")
        if var.size and not (0 <= min(i.min(), j.min()) and max(i.max(), j.max()) < blk.dim):
            raise DimensionMismatch(f"entry position outside block dim {blk.dim}")
        keep = val != 0.0  # a 0-d mask gives 1-D results, as an array does
        blk.entries.append((var[keep], i[keep], j[keep], val[keep]))
        self._compiled = None

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

    def add_corner_slack(self, bid: int, dc: int, var_start: int) -> None:
        """Declare the top-left dc x dc corner as a packed symmetric slack
        variable occupying vars var_start .. var_start + svec_len(dc) - 1."""
        blk = self._blocks[bid]
        if blk.corner is not None:
            raise DimensionMismatch("block already has a corner declaration")
        if not (1 <= dc <= blk.dim):
            raise DimensionMismatch(f"corner dim {dc} outside block dim {blk.dim}")
        t = svec_len(dc)
        if not (0 <= var_start and var_start + t <= self.num_vars):
            raise DimensionMismatch("corner variables out of range")
        blk.corner = _Corner(dc=int(dc), var_start=int(var_start))
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

