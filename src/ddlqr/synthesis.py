"""Controller synthesis programs over LMI blocks.

Every program minimizes the lifted H2 cost tr(QP) + tr(RL) in the shared
variables (P, K tilde = K P, ...) plus a program-specific regularization
term, subject to the stability LMI [[P - I, *], [*^T, P]] >= 0. P >= I
needs no block of its own: P - I is the leading principal block of that LMI.
The reduced programs have size independent of the data length; the baseline
programs carry the raw data matrices and an ell x ell slack, which is what
makes them scale badly. Extraction always goes through P^{-1}, well
conditioned because P >= I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conic import (
    ConicSolution,
    LmiProblem,
    SolverSettings,
    new_problem,
    smat,
    solve,
    svec,
    svec_index,
    svec_len,
)
from .datamodel import Dataset, DataStats, kernel_projector
from .effects import RegWeights
from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    SingularCovariance,
    SynthesisInfeasible,
    UnstableMatrix,
)
from .matlin import (
    RANK_TOL,
    as_matrix,
    h2norm_sq,
    inv_pd,
    require_symmetric,
    solve_dare,
    solve_dlyap,
    spectral_radius,
)

__all__ = [
    "LqrSolution",
    "PlantModel",
    "SdpLayout",
    "TruthEvaluation",
    "build_baseline_covar_problem",
    "build_baseline_gram_problem",
    "build_model_lqr_problem",
    "build_reduced_covar_problem",
    "build_reduced_gram_problem",
    "ce_lqr",
    "evaluate_on_truth",
    "model_lqr_sdp",
    "synth_baseline_covar",
    "synth_baseline_gram",
    "synth_reduced_covar",
    "synth_reduced_gram",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PlantModel:
    """True system matrices and cost weights."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
        Q, R = _check_qr(n, B.shape[1], self.Q, self.R)
        for name, val in (("A", A), ("B", B), ("Q", Q), ("R", R)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class _Slot:
    kind: str
    rows: int
    cols: int
    offset: int
    size: int


class SdpLayout:
    """Assigns named decision matrices to ranges of the flat y vector.

    Symmetric matrices are packed in scaled upper-triangle order (the same
    convention as the conic svec), full matrices row-major. Offsets are
    sequential, so the layout is non-overlapping and exhaustive by
    construction.
    """

    def __init__(self):
        self._slots: dict[str, _Slot] = {}
        self._size = 0

    def add_sym(self, name: str, dim: int) -> None:
        self._add(name, "sym", dim, dim, svec_len(dim))

    def add_full(self, name: str, rows: int, cols: int) -> None:
        self._add(name, "full", rows, cols, rows * cols)

    def _add(self, name: str, kind: str, rows: int, cols: int, size: int) -> None:
        if name in self._slots:
            raise DimensionMismatch(f"slot {name!r} already allocated")
        if rows < 1 or cols < 1:
            raise DimensionMismatch(f"slot {name!r} must have positive dimensions")
        self._slots[name] = _Slot(kind, rows, cols, self._size, size)
        self._size += size

    @property
    def num_vars(self) -> int:
        return self._size

    def slot(self, name: str) -> _Slot:
        return self._slots[name]

    def names(self) -> list[str]:
        return list(self._slots)

    def var_sym(self, name: str, i: int, j: int) -> int:
        s = self._slots[name]
        if s.kind != "sym":
            raise DimensionMismatch(f"slot {name!r} is not symmetric")
        return s.offset + svec_index(min(i, j), max(i, j), s.rows)

    def var_full(self, name: str, i: int, j: int) -> int:
        s = self._slots[name]
        if s.kind != "full":
            raise DimensionMismatch(f"slot {name!r} is not full")
        return s.offset + i * s.cols + j

    def var_grid(self, name: str) -> np.ndarray:
        s = self._slots[name]
        if s.kind != "full":
            raise DimensionMismatch(f"slot {name!r} is not full")
        return s.offset + np.arange(s.size).reshape(s.rows, s.cols)

    def extract(self, name: str, y: np.ndarray) -> np.ndarray:
        s = self._slots[name]
        seg = np.asarray(y, dtype=float)[s.offset : s.offset + s.size]
        if s.kind == "sym":
            return smat(seg, s.rows)
        return seg.reshape(s.rows, s.cols)

    def add_sym_cost(self, c: np.ndarray, name: str, C) -> None:
        """c.T y accumulates tr(C V) for the symmetric slot V."""
        s = self._slots[name]
        if s.kind != "sym":
            raise DimensionMismatch(f"slot {name!r} is not symmetric")
        c[s.offset : s.offset + s.size] += svec(require_symmetric(C, "cost matrix"))


@dataclass(frozen=True)
class LqrSolution:
    """One synthesized controller with its solver diagnostics."""

    K: np.ndarray
    P: np.ndarray
    A_cl: np.ndarray
    objective: float
    status: str
    solver: ConicSolution | None = field(repr=False, default=None)
    program_id: str = ""


@dataclass(frozen=True)
class TruthEvaluation:
    """Closed-loop quality of a gain on the true plant.

    h2_sq is None when the true closed loop is not stable.
    """

    rho: float
    h2_sq: float | None

    @property
    def stable(self) -> bool:
        return self.h2_sq is not None


# -- block placement helpers --------------------------------------------------


def _place_sym_diag(p: LmiProblem, lay: SdpLayout, bid: int, name: str, r0: int) -> None:
    """Symmetric slot V placed at the diagonal position (r0, r0)."""
    d = lay.slot(name).rows
    for i in range(d):
        for j in range(i, d):
            val = 1.0 if i == j else 1.0 / _SQRT2
            p.add_entry(bid, lay.var_sym(name, i, j), r0 + i, r0 + j, val)


def _place_prod_sym(
    p: LmiProblem, lay: SdpLayout, bid: int, name: str, left: np.ndarray, r0: int, c0: int
) -> None:
    """left @ V at the off-diagonal region (r0, c0), V a symmetric slot.

    The region must not touch its own mirror: add_entry writes both
    triangles, so row and column ranges have to be disjoint.
    """
    d = lay.slot(name).rows
    left = np.asarray(left, dtype=float)
    for r in range(left.shape[0]):
        for c in range(d):
            for i in range(d):
                val = left[r, i]
                if val == 0.0:
                    continue
                sc = 1.0 if i == c else 1.0 / _SQRT2
                p.add_entry(bid, lay.var_sym(name, i, c), r0 + r, c0 + c, val * sc)


def _place_prod_full(
    p: LmiProblem, lay: SdpLayout, bid: int, name: str, left: np.ndarray, r0: int, c0: int
) -> None:
    """left @ V at the off-diagonal region (r0, c0), V a full slot."""
    s = lay.slot(name)
    left = np.asarray(left, dtype=float)
    for r in range(left.shape[0]):
        for t in range(s.rows):
            val = left[r, t]
            if val == 0.0:
                continue
            for c in range(s.cols):
                p.add_entry(bid, lay.var_full(name, t, c), r0 + r, c0 + c, val)


def _stability_block(p: LmiProblem, lay: SdpLayout, dim_n: int) -> int:
    """[[P - I, *], [*^T, P]] >= 0 skeleton; caller fills the corner."""
    bid = p.new_block(2 * dim_n)
    F0 = np.zeros((2 * dim_n, 2 * dim_n))
    F0[:dim_n, :dim_n] = -np.eye(dim_n)
    p.set_block_const(bid, F0)
    _place_sym_diag(p, lay, bid, "P", 0)
    _place_sym_diag(p, lay, bid, "P", dim_n)
    return bid


def _slack_bound_block(
    p: LmiProblem, lay: SdpLayout, slack: str, dc: int, dim_n: int
) -> int:
    """[[slack, *], [*^T, P]] >= 0 with the slack eliminated as a corner."""
    bid = p.new_block(dc + dim_n)
    p.add_corner_slack(bid, dc, lay.slot(slack).offset)
    _place_sym_diag(p, lay, bid, "P", dc)
    return bid


def _require_pd_cov(cov: np.ndarray, name: str, definite: bool) -> None:
    if not definite:
        raise NotPositiveDefinite(
            f"{name} is singular: the stacked data matrix is rank deficient"
        )
    w = np.linalg.eigvalsh(require_symmetric(cov, name))
    scale = float(np.max(np.abs(w)))
    if scale <= 0.0 or float(np.min(w)) <= RANK_TOL * scale:
        raise NotPositiveDefinite(f"{name} must be positive definite")


def _check_qr(n: int, m: int, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric positive definite Q (n x n) and R (m x m)."""
    Q = require_symmetric(Q, "Q")
    R = require_symmetric(R, "R")
    if Q.shape[0] != n or R.shape[0] != m:
        raise DimensionMismatch(f"Q/R dimensions do not match n={n}, m={m}")
    for M, name in ((Q, "Q"), (R, "R")):
        w = np.linalg.eigvalsh(M)
        if float(np.min(w)) <= 1e-12 * float(np.trace(M)):
            raise NotPositiveDefinite(f"{name} must be positive definite")
    return Q, R


# Gains enter acceptance comparisons at 1e-5, and near a flat optimum the
# gain error scales like sqrt of the objective gap. The solver's stall
# detection returns its best attainable iterate, so tight targets cost a few
# polish iterations, never a failure.
def _default_settings() -> SolverSettings:
    return SolverSettings(tol_gap=1e-11, tol_feas=1e-11)


def _solve_and_extract(
    p: LmiProblem,
    lay: SdpLayout,
    program_id: str,
    settings: SolverSettings | None,
    a_cl_from,
) -> LqrSolution:
    sol = solve(p, settings if settings is not None else _default_settings())
    if not sol.optimal:
        raise SynthesisInfeasible(program_id, sol.status.value, sol)
    P = lay.extract("P", sol.y)
    Kt = lay.extract("Kt", sol.y) if "Kt" in lay.names() else None
    K, A_cl = a_cl_from(sol.y, P, Kt)
    return LqrSolution(
        K=K,
        P=P,
        A_cl=A_cl,
        objective=sol.objective,
        status=sol.status.value,
        solver=sol,
        program_id=program_id,
    )


# -- model-based program ------------------------------------------------------


def build_model_lqr_problem(pm: PlantModel) -> tuple[LmiProblem, SdpLayout]:
    """Known-model H2 program in the lifted variables (P, K tilde, L)."""
    n, m = pm.n, pm.m
    lay = SdpLayout()
    lay.add_sym("P", n)
    lay.add_full("Kt", m, n)
    lay.add_sym("L", m)
    p = new_problem(lay.num_vars)

    bid = _stability_block(p, lay, n)
    _place_prod_sym(p, lay, bid, "P", pm.A, 0, n)
    _place_prod_full(p, lay, bid, "Kt", pm.B, 0, n)

    bid = _slack_bound_block(p, lay, "L", m, n)
    _place_prod_full(p, lay, bid, "Kt", np.eye(m), 0, m)

    c = np.zeros(lay.num_vars)
    lay.add_sym_cost(c, "P", pm.Q)
    lay.add_sym_cost(c, "L", pm.R)
    p.set_objective(c)
    return p, lay


def model_lqr_sdp(pm: PlantModel, settings: SolverSettings | None = None) -> LqrSolution:
    """Solve the known-model program and extract K = K tilde P^{-1}."""
    p, lay = build_model_lqr_problem(pm)

    def extract(y, P, Kt):
        K = np.linalg.solve(P, Kt.T).T
        return K, pm.A + pm.B @ K

    return _solve_and_extract(p, lay, "model", settings, extract)


# -- reduced data-driven programs ---------------------------------------------


def build_reduced_gram_problem(
    stats: DataStats, Q, R, w: RegWeights
) -> tuple[LmiProblem, SdpLayout]:
    """Data-size-independent program for the gram parameterization.

    Decision blocks: P, K tilde, the free lifted closed loop, the cost
    slack L, and deviation slacks N (gain, when lambda2 > 0) and M (closed
    loop, when lambda1 > 0). Slack blocks for zero weights are omitted
    entirely.
    """
    if w.parameterization != "gram":
        raise ValueError("reduced gram program requires the gram parameterization")
    n, m = stats.n, stats.m
    Q, R = _check_qr(n, m, Q, R)
    inv_dx = inv_du = inv_x0 = None
    if w.lambda1 > 0.0:
        _require_pd_cov(stats.cov_resid_x, "cov_resid_x", stats.rank_report.full_rank_holds)
        inv_dx = inv_pd(stats.cov_resid_x, "cov_resid_x")
    if w.lambda2 > 0.0:
        inv_du = inv_pd(stats.cov_resid_u, "cov_resid_u")
    if w.lambda3 > 0.0:
        inv_x0 = inv_pd(stats.cov_x0, "cov_x0")

    lay = SdpLayout()
    lay.add_sym("P", n)
    lay.add_full("Kt", m, n)
    lay.add_full("At", n, n)
    lay.add_sym("L", m)
    if w.lambda2 > 0.0:
        lay.add_sym("N", m)
    if w.lambda1 > 0.0:
        lay.add_sym("M", n)
    p = new_problem(lay.num_vars)

    bid = _stability_block(p, lay, n)
    _place_prod_full(p, lay, bid, "At", np.eye(n), 0, n)

    bid = _slack_bound_block(p, lay, "L", m, n)
    _place_prod_full(p, lay, bid, "Kt", np.eye(m), 0, m)

    if w.lambda2 > 0.0:
        bid = _slack_bound_block(p, lay, "N", m, n)
        _place_prod_full(p, lay, bid, "Kt", np.eye(m), 0, m)
        _place_prod_sym(p, lay, bid, "P", -stats.k_ls, 0, m)

    if w.lambda1 > 0.0:
        bid = _slack_bound_block(p, lay, "M", n, n)
        _place_prod_full(p, lay, bid, "At", np.eye(n), 0, n)
        _place_prod_sym(p, lay, bid, "P", -stats.a_ls, 0, n)
        _place_prod_full(p, lay, bid, "Kt", -stats.b_ls, 0, n)

    scale = 1.0 / stats.ell if w.ell_scaling else 1.0
    c = np.zeros(lay.num_vars)
    qp = Q if inv_x0 is None else Q + w.lambda3 * scale * inv_x0
    lay.add_sym_cost(c, "P", qp)
    lay.add_sym_cost(c, "L", R)
    if w.lambda2 > 0.0:
        lay.add_sym_cost(c, "N", w.lambda2 * scale * inv_du)
    if w.lambda1 > 0.0:
        lay.add_sym_cost(c, "M", w.lambda1 * scale * inv_dx)
    p.set_objective(c)
    return p, lay


def synth_reduced_gram(
    stats: DataStats, Q, R, w: RegWeights, settings: SolverSettings | None = None
) -> LqrSolution:
    p, lay = build_reduced_gram_problem(stats, Q, R, w)

    def extract(y, P, Kt):
        Pinv_t = np.linalg.solve(P, np.eye(stats.n))
        K = Kt @ Pinv_t
        A_cl = lay.extract("At", y) @ Pinv_t
        return K, A_cl

    return _solve_and_extract(p, lay, "reduced-gram", settings, extract)


def build_reduced_covar_problem(
    stats: DataStats, Q, R, w: RegWeights
) -> tuple[LmiProblem, SdpLayout]:
    """Data-size-independent program for the covariance parameterization.

    The closed loop is not a free variable: the stability LMI is written
    over A_LS P + B_LS K tilde directly.
    """
    if w.parameterization != "covariance":
        raise ValueError("reduced covariance program requires the covariance parameterization")
    n, m = stats.n, stats.m
    Q, R = _check_qr(n, m, Q, R)
    inv_du = inv_pd(stats.cov_resid_u, "cov_resid_u") if w.lambda2 > 0.0 else None
    inv_x0 = inv_pd(stats.cov_x0, "cov_x0") if w.lambda3 > 0.0 else None

    lay = SdpLayout()
    lay.add_sym("P", n)
    lay.add_full("Kt", m, n)
    lay.add_sym("L", m)
    if w.lambda2 > 0.0:
        lay.add_sym("N", m)
    p = new_problem(lay.num_vars)

    bid = _stability_block(p, lay, n)
    _place_prod_sym(p, lay, bid, "P", stats.a_ls, 0, n)
    _place_prod_full(p, lay, bid, "Kt", stats.b_ls, 0, n)

    bid = _slack_bound_block(p, lay, "L", m, n)
    _place_prod_full(p, lay, bid, "Kt", np.eye(m), 0, m)

    if w.lambda2 > 0.0:
        bid = _slack_bound_block(p, lay, "N", m, n)
        _place_prod_full(p, lay, bid, "Kt", np.eye(m), 0, m)
        _place_prod_sym(p, lay, bid, "P", -stats.k_ls, 0, m)

    scale = 1.0 / stats.ell if w.ell_scaling else 1.0
    c = np.zeros(lay.num_vars)
    qp = Q if inv_x0 is None else Q + w.lambda3 * scale * inv_x0
    lay.add_sym_cost(c, "P", qp)
    lay.add_sym_cost(c, "L", R)
    if inv_du is not None:
        lay.add_sym_cost(c, "N", w.lambda2 * scale * inv_du)
    p.set_objective(c)
    return p, lay


def synth_reduced_covar(
    stats: DataStats, Q, R, w: RegWeights, settings: SolverSettings | None = None
) -> LqrSolution:
    p, lay = build_reduced_covar_problem(stats, Q, R, w)

    def extract(y, P, Kt):
        K = np.linalg.solve(P, Kt.T).T
        return K, stats.a_ls + stats.b_ls @ K

    return _solve_and_extract(p, lay, "reduced-covar", settings, extract)


# -- baseline data-driven programs (size grows with ell) ----------------------


def build_baseline_gram_problem(
    d: Dataset, stats: DataStats, Q, R, lam: float, projected: bool
) -> tuple[LmiProblem, SdpLayout]:
    """Raw-data program with the ell-column variable Y = G P.

    The linear constraint X0 Y = P is encoded as paired one-dimensional
    rows scaled to the data magnitude; the regularizer slack W is an
    ell x ell corner.
    """
    n, m, ell = stats.n, stats.m, stats.ell
    Q, R = _check_qr(n, m, Q, R)
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"lambda must be non-negative, got {lam}")

    lay = SdpLayout()
    lay.add_sym("P", n)
    lay.add_full("Y", ell, n)
    lay.add_sym("L", m)
    lay.add_sym("W", ell)
    p = new_problem(lay.num_vars)
    ygrid = lay.var_grid("Y")

    # X0 Y - P = 0, entry by entry, as e >= 0 and -e >= 0 rows.
    eq_scale = 1.0 / max(1.0, float(np.linalg.norm(d.x0, 2)))
    for i in range(n):
        for j in range(n):
            for sign in (1.0, -1.0):
                bid = p.new_block(1)
                s = sign * eq_scale
                for t in range(ell):
                    val = d.x0[i, t]
                    if val != 0.0:
                        p.add_entry(bid, int(ygrid[t, j]), 0, 0, s * val)
                pc = 1.0 if i == j else 1.0 / _SQRT2
                p.add_entry(bid, lay.var_sym("P", i, j), 0, 0, -s * pc)

    bid = _stability_block(p, lay, n)
    C = np.zeros((2 * n, ell))
    C[:n, :] = d.x1
    p.add_column_family(bid, C, n, ygrid)

    bid = _slack_bound_block(p, lay, "L", m, n)
    C = np.zeros((m + n, ell))
    C[:m, :] = d.u0
    p.add_column_family(bid, C, m, ygrid)

    bid = _slack_bound_block(p, lay, "W", ell, n)
    C = np.zeros((ell + n, ell))
    C[:ell, :] = kernel_projector(d) if projected else np.eye(ell)
    p.add_column_family(bid, C, ell, ygrid)

    c = np.zeros(lay.num_vars)
    lay.add_sym_cost(c, "P", Q)
    lay.add_sym_cost(c, "L", R)
    lay.add_sym_cost(c, "W", lam * np.eye(ell))
    p.set_objective(c)
    return p, lay


def synth_baseline_gram(
    d: Dataset,
    stats: DataStats,
    Q,
    R,
    lam: float,
    projected: bool,
    settings: SolverSettings | None = None,
) -> LqrSolution:
    p, lay = build_baseline_gram_problem(d, stats, Q, R, lam, projected)
    program_id = "baseline-gram-proj" if projected else "baseline-gram"

    def extract(y, P, Kt):
        Y = lay.extract("Y", y)
        Pinv_t = np.linalg.solve(P, np.eye(stats.n))
        K = d.u0 @ Y @ Pinv_t
        A_cl = d.x1 @ Y @ Pinv_t
        return K, A_cl

    return _solve_and_extract(p, lay, program_id, settings, extract)


def build_baseline_covar_problem(
    stats: DataStats, Q, R, lam: float
) -> tuple[LmiProblem, SdpLayout]:
    """Covariance-parameterized baseline with the (n+m) x (n+m) slack Z.

    Z >= [P; K tilde] P^{-1} [P; K tilde]^T via one LMI; the regularizer
    enters the objective as lam * tr(Z cov_d0^{-1}).
    """
    n, m = stats.n, stats.m
    Q, R = _check_qr(n, m, Q, R)
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    try:
        cov_inv = inv_pd(stats.cov_d0, "cov_d0")
    except NotPositiveDefinite as e:
        raise SingularCovariance(str(e)) from e

    lay = SdpLayout()
    lay.add_sym("P", n)
    lay.add_full("Kt", m, n)
    lay.add_sym("L", m)
    lay.add_sym("Z", n + m)
    p = new_problem(lay.num_vars)

    bid = _stability_block(p, lay, n)
    _place_prod_sym(p, lay, bid, "P", stats.a_ls, 0, n)
    _place_prod_full(p, lay, bid, "Kt", stats.b_ls, 0, n)

    bid = _slack_bound_block(p, lay, "L", m, n)
    _place_prod_full(p, lay, bid, "Kt", np.eye(m), 0, m)

    bid = _slack_bound_block(p, lay, "Z", n + m, n)
    _place_prod_sym(p, lay, bid, "P", np.eye(n), 0, n + m)
    _place_prod_full(p, lay, bid, "Kt", np.eye(m), n, n + m)

    c = np.zeros(lay.num_vars)
    lay.add_sym_cost(c, "P", Q)
    lay.add_sym_cost(c, "L", R)
    lay.add_sym_cost(c, "Z", lam * cov_inv)
    p.set_objective(c)
    return p, lay


def synth_baseline_covar(
    stats: DataStats, Q, R, lam: float, settings: SolverSettings | None = None
) -> LqrSolution:
    p, lay = build_baseline_covar_problem(stats, Q, R, lam)

    def extract(y, P, Kt):
        K = np.linalg.solve(P, Kt.T).T
        return K, stats.a_ls + stats.b_ls @ K

    return _solve_and_extract(p, lay, "baseline-covar", settings, extract)


# -- certainty equivalence and evaluation -------------------------------------


def ce_lqr(stats: DataStats, Q, R) -> LqrSolution:
    """Certainty-equivalent LQR on the least-squares estimates."""
    Q, R = _check_qr(stats.n, stats.m, Q, R)
    K, _ = solve_dare(stats.a_ls, stats.b_ls, Q, R)
    A_cl = stats.a_ls + stats.b_ls @ K
    P = solve_dlyap(A_cl)
    objective = float(np.trace(Q @ P) + np.trace(K.T @ R @ K @ P))
    return LqrSolution(
        K=K,
        P=P,
        A_cl=A_cl,
        objective=objective,
        status="Optimal",
        solver=None,
        program_id="ce",
    )


def evaluate_on_truth(sol: LqrSolution, pm: PlantModel) -> TruthEvaluation:
    """Spectral radius and H2 cost of the gain on the true plant."""
    A_cl = pm.A + pm.B @ sol.K
    rho = spectral_radius(A_cl)
    try:
        h2 = h2norm_sq(A_cl, sol.K, pm.Q, pm.R)
    except UnstableMatrix:
        return TruthEvaluation(rho=rho, h2_sq=None)
    return TruthEvaluation(rho=rho, h2_sq=h2)
