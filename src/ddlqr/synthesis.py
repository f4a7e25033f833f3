"""Controller synthesis programs over LMI blocks, and their Riccati forms.

Every program is one lifted H2 program (`_h2_program`) in the variables
(P, K tilde = K P, ...): minimize tr(Q P) plus weighted slack bounds subject
to the stability LMI [[P - I, A_cl P], [*, P]] >= 0, block 0. A slack bound
is a corner slack S >= dev P^-1 dev^T, the LMI [[S, dev], [*, P]] >= 0,
priced by tr(D S). The input cost tr(R K P K^T) is the first bound (S = L,
dev = K P, D = R), block 1; the regularizers are the others. So every
program states K P as block 1's border and A_cl P as block 0's, and
extraction reads both at the solution and multiplies by P^{-1}, well
conditioned because P >= I. P >= I needs no block of its own: P - I is the
leading principal block of the stability LMI. The reduced programs have size
independent of the data length. The baseline gram programs carry (ell - n) n
kernel coordinates, the order of their Schur complement, and a regularizer
of up to ell - n (n+1)-blocks, one row slack each; no block exceeds 2n.

Each block is written once, as the paper's matrix: the off-diagonal part is
a linear matrix expression whose parameters name layout slots, for example
`lambda P, Kt: Kt - K_LS @ P` for the gain slack [[N, K tilde - K_LS P],
[*, P]]. Evaluated on the slots' unit matrices (`SdpLayout.units`), the
block gives every variable's coefficient matrix at once: the dense stack
`LmiProblem.new_block` takes, or for a slack block its columns right of the
corner. Slacks stay corners, which the solver eliminates in closed form. The
baseline's Y = X0^+ P + N Z meets X0 Y = P for every Z, so its kernel
coordinates Z are one more slot and no program carries an equality row.

Each reduced program is also an LQR problem on the least-squares model (an
H2 LMI is equivalent to a discrete algebraic Riccati equation), so
`synth_reduced_gram` and `synth_reduced_covar` solve that equation and return
the SDP's optimum without an interior-point solve. The gain deviation enters
as a completed square in a shifted input, and the objective is the nominal H2
cost plus the regularizer's parametric effect, priced by `effects`.
`reduced_sdp` solves the programs as SDPs, the paper's formulation, and
serves as their independent check.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .conic import (
    ConicSolution,
    LmiProblem,
    smat,
    solve,
    svec,
    svec_len,
)
from .datamodel import Dataset, DataStats, _frozen
from .effects import RegWeights, _effect, _weight
from .errors import DimensionMismatch, NoConvergence, SynthesisInfeasible, UnstableMatrix
from .matlin import _dare, _dlyap, _h2, _require_pd, _rho, _shaped, _square, as_matrix
from .matlin import require_symmetric, sym

__all__ = [
    "LqrSolution",
    "PlantModel",
    "SdpLayout",
    "TruthEvaluation",
    "baseline_y_map",
    "build_baseline_covar_problem",
    "build_baseline_gram_problem",
    "build_model_lqr_problem",
    "build_reduced_covar_problem",
    "build_reduced_gram_problem",
    "evaluate_on_truth",
    "model_lqr_sdp",
    "reduced_sdp",
    "synth_baseline_covar",
    "synth_baseline_gram",
    "synth_reduced",
    "synth_reduced_covar",
    "synth_reduced_gram",
]

@dataclass(frozen=True)
class PlantModel:
    """True system matrices and cost weights."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = _square(self.A, "A")
        B = as_matrix(self.B, "B")
        n = A.shape[0]
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

    def add_sym(self, name: str, dim: int, count: int = 1) -> None:
        """A symmetric dim x dim slot, or count of them packed one after another."""
        self._add(name, "sym", dim, dim, count * svec_len(dim))

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

    def units(self, names) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Unit matrices of the named slots' variables: (var, U) with U[name][k]
        the value of slot name at y = e_{var[k]}, so a linear matrix
        expression evaluated on U gives each variable's coefficient."""
        names = sorted(set(names), key=lambda name: self._slots[name].offset)
        slots = [self._slots[name] for name in names]
        var = np.concatenate([s.offset + np.arange(s.size) for s in slots])
        eye, U, k0 = np.eye(var.size), {}, 0
        for name, s in zip(names, slots):
            cols = eye[:, k0 : k0 + s.size]
            U[name] = smat(cols, s.rows) if s.kind == "sym" else cols.reshape(-1, s.rows, s.cols)
            k0 += s.size
        return var, U

    def extract(self, name: str, y: np.ndarray) -> np.ndarray:
        s = self._slots[name]
        seg = np.asarray(y, dtype=float)[s.offset : s.offset + s.size]
        if s.kind == "sym":
            S = smat(seg.reshape(-1, svec_len(s.rows)), s.rows)
            return S[0] if len(S) == 1 else S
        return seg.reshape(s.rows, s.cols)

    def add_sym_cost(self, c: np.ndarray, name: str, C) -> None:
        """c.T y accumulates tr(C V) for the symmetric slot V, or for each
        matrix V of a stacked slot."""
        s = self._slots[name]
        if s.kind != "sym":
            raise DimensionMismatch(f"slot {name!r} is not symmetric")
        v = svec(require_symmetric(C, "cost matrix"))
        c[s.offset : s.offset + s.size] += np.tile(v, s.size // v.size)


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


# -- blocks as linear matrix expressions --------------------------------------


def _h2_program(lay: SdpLayout, q_p, a_cl, kp, R, bounds) -> LmiProblem:
    """The lifted H2 program every builder shares, over a layout that holds
    the primal slots (P first).

    Block 0 is [[P - I, A_cl P], [*, P]] >= 0 with A_cl P = a_cl(...), and the
    objective starts at tr(q_p P). The input cost ("L", K P = kp(...), R) is
    the first bound, so block 1's border is K P (see _solve_and_extract).
    Each bound (name, dev, D) is a stack of g members [[S_j, dev_j], [*, P]]
    >= 0, with dev(...) one r x n border (g = 1) or a (..., g, r, n) stack
    of them. It allocates the symmetric r x r slacks S_j after the primal
    slots, one after another, adds sum_j tr(D S_j) and adds the members as
    one stacked block with the S_j as corners, each declared by its columns
    right of the corner, [dev_j; P], over the variables it touches.
    """
    n = lay.slot("P").rows
    var, U = lay.units(lay.names())  # every primal slot's, shared by all borders

    def border(off):
        """off(...), a linear matrix expression over the slots its parameters
        name, at y = e_{var[k]} for each k: the border's coefficients."""
        return off(*(U[s] for s in inspect.signature(off).parameters))

    stacks = []
    for name, dev, D in [("L", kp, R), *bounds]:
        X = border(dev).reshape(var.size, -1, D.shape[0], n)  # (variable, member, r, n)
        lay.add_sym(name, D.shape[0], X.shape[1])
        stacks.append((name, X, D))
    c = np.zeros(lay.num_vars)
    lay.add_sym_cost(c, "P", q_p)
    for name, *_, D in stacks:
        lay.add_sym_cost(c, name, D)
    p = LmiProblem(c)

    X = border(a_cl)
    F0 = np.zeros((2 * n, 2 * n))
    F0[:n, :n] = -np.eye(n)
    p.new_block(F0, var, np.block([[U["P"], X], [X.swapaxes(1, 2), U["P"]]]))
    for name, X, D in stacks:
        k, g, r = *X.shape[:2], D.shape[0]
        # Member j takes, in order, the variables whose [X_j; P] is not zero (a product
        # counts them faster than any()), padded with its first untouched ones to the widest.
        keep = ((X != 0.0).reshape(k, g, -1) @ np.ones(r * n) > 0.0) | U["P"].any((1, 2))[:, None]
        touched = keep.sum(0)
        keep |= np.cumsum(~keep, axis=0) <= touched.max() - touched
        pos = np.flatnonzero(keep.T).reshape(g, -1) % k
        F = np.concatenate((X[pos, np.arange(g)[:, None]], U["P"][pos]), axis=2)
        p.new_block(np.zeros((g, r + n, r + n)), var[pos], F, corner=(r, lay.slot(name).offset))
    return p


def _lqr_program(A, B, q_p, R, bounds) -> tuple[LmiProblem, SdpLayout]:
    """The _h2_program of LQR on the model (A, B): the layout (P, K tilde)
    and the closed loop A P + B K tilde. The known-model, reduced covariance
    and baseline covariance programs are this program."""
    lay = SdpLayout()
    lay.add_sym("P", A.shape[0])
    lay.add_full("Kt", B.shape[1], A.shape[0])
    return _h2_program(lay, q_p, lambda P, Kt: A @ P + B @ Kt, lambda Kt: Kt, R, bounds), lay


def _check_qr(n: int, m: int, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric positive definite Q (n x n) and R (m x m), read only. Each
    content, the shape and bytes of Q and of R, is checked once per process."""
    Q, R = np.asarray(Q, dtype=float), np.asarray(R, dtype=float)
    return _checked_qr(n, m, Q.shape, Q.tobytes(), R.shape, R.tobytes())


@lru_cache(maxsize=32)
def _checked_qr(n: int, m: int, q_shape, q_bytes, r_shape, r_bytes):
    """`_check_qr` on one content; a content that fails raises, so it is never stored."""
    Q = require_symmetric(np.frombuffer(q_bytes).reshape(q_shape), "Q")
    R = require_symmetric(np.frombuffer(r_bytes).reshape(r_shape), "R")
    if Q.shape[0] != n or R.shape[0] != m:
        raise DimensionMismatch(f"Q/R dimensions do not match n={n}, m={m}")
    _require_pd(Q, "Q")
    _require_pd(R, "R")
    return _frozen(Q), _frozen(R)


def _solve_and_extract(p: LmiProblem, lay: SdpLayout, program_id: str) -> LqrSolution:
    """Solve an _h2_program and read K P off block 1's border and A_cl P off
    block 0's at the solution, so K and A_cl come from one solve against P."""
    sol = solve(p)
    if not sol.optimal:
        raise SynthesisInfeasible(program_id, sol.status.value, sol)
    P = lay.extract("P", sol.y)
    stab, cost = (cb.apply(sol.y)[0] for cb in p.compiled()[:2])
    n = P.shape[0]
    m = cost.shape[0] - n
    KA = np.linalg.solve(P, np.vstack((cost[:m, m:], stab[:n, n:])).T).T
    return LqrSolution(
        K=KA[:m],
        P=P,
        A_cl=KA[m:],
        objective=sol.objective,
        status=sol.status.value,
        solver=sol,
        program_id=program_id,
    )


# -- model-based program ------------------------------------------------------


def build_model_lqr_problem(pm: PlantModel) -> tuple[LmiProblem, SdpLayout]:
    """Known-model H2 program in the lifted variables (P, K tilde, L)."""
    return _lqr_program(pm.A, pm.B, pm.Q, pm.R, [])


def model_lqr_sdp(pm: PlantModel) -> LqrSolution:
    """Solve the known-model program and extract K = K tilde P^{-1}."""
    return _solve_and_extract(*build_model_lqr_problem(pm), "model")


# -- reduced data-driven programs ---------------------------------------------


def _reduced_weights(stats: DataStats, Q, R, w: RegWeights, parameterization: str):
    """Checked cost weights shared by a reduced program and its Riccati form.

    Returns (Q, R, c3 cov_x0^-1, c2 cov_resid_u^-1, c1 cov_resid_x^-1) with
    c_i = lambda_i / ell under ell scaling and lambda_i otherwise, the
    inverses read from the stats' cache. A weight whose lambda is zero is a
    zero matrix, and its covariance is not read.
    """
    if w.parameterization != parameterization:
        raise ValueError(
            f"reduced {parameterization} program requires the {parameterization} parameterization"
        )
    n, m = stats.n, stats.m
    Q, R = _check_qr(n, m, Q, R)
    scale = 1.0 / stats.ell if w.ell_scaling else 1.0
    d0, du, dx = np.zeros((n, n)), np.zeros((m, m)), np.zeros((n, n))
    if w.lambda1 > 0.0:
        dx = w.lambda1 * scale * stats.cov_resid_x_inv
    if w.lambda2 > 0.0:
        du = w.lambda2 * scale * stats.cov_resid_u_inv
    if w.lambda3 > 0.0:
        d0 = w.lambda3 * scale * stats.cov_x0_inv
    return Q, R, d0, du, dx


def build_reduced_gram_problem(
    stats: DataStats, Q, R, w: RegWeights
) -> tuple[LmiProblem, SdpLayout]:
    """Data-size-independent program for the gram parameterization.

    Decision blocks: P, K tilde, the free lifted closed loop, the cost
    slack L, and deviation slacks N (gain, when lambda2 > 0) and M (closed
    loop, when lambda1 > 0). Slack blocks for zero weights are omitted
    entirely.
    """
    Q, R, d0, du, dx = _reduced_weights(stats, Q, R, w, "gram")
    n, m = stats.n, stats.m
    A_LS, B_LS, K_LS = stats.a_ls, stats.b_ls, stats.k_ls
    lay = SdpLayout()
    lay.add_sym("P", n)
    lay.add_full("Kt", m, n)
    lay.add_full("At", n, n)
    bounds = []
    if w.lambda2 > 0.0:
        bounds.append(("N", lambda P, Kt: Kt - K_LS @ P, du))
    if w.lambda1 > 0.0:
        bounds.append(("M", lambda P, Kt, At: At - A_LS @ P - B_LS @ Kt, dx))
    return _h2_program(lay, Q + d0, lambda At: At, lambda Kt: Kt, R, bounds), lay


def build_reduced_covar_problem(
    stats: DataStats, Q, R, w: RegWeights
) -> tuple[LmiProblem, SdpLayout]:
    """Data-size-independent program for the covariance parameterization.

    The closed loop is not a free variable: the stability LMI is written
    over A_LS P + B_LS K tilde directly.
    """
    Q, R, d0, du, _ = _reduced_weights(stats, Q, R, w, "covariance")
    bounds = [("N", lambda P, Kt: Kt - stats.k_ls @ P, du)] if w.lambda2 > 0.0 else []
    return _lqr_program(stats.a_ls, stats.b_ls, Q + d0, R, bounds)


def reduced_sdp(stats: DataStats, Q, R, w: RegWeights) -> LqrSolution:
    """Solve the reduced program of w's parameterization as the SDP it is.

    The paper's formulation, kept as the independent reference for the
    Riccati path of `synth_reduced_gram` and `synth_reduced_covar`.
    """
    if w.parameterization == "gram":
        return _solve_and_extract(*build_reduced_gram_problem(stats, Q, R, w), "reduced-gram")
    return _solve_and_extract(*build_reduced_covar_problem(stats, Q, R, w), "reduced-covar")


def synth_reduced(stats: DataStats, Q, R, w: RegWeights) -> LqrSolution:
    """Solve the reduced program of w's parameterization through its Riccati
    form: `synth_reduced_gram` or `synth_reduced_covar`."""
    synth = synth_reduced_gram if w.parameterization == "gram" else synth_reduced_covar
    return synth(stats, Q, R, w)


def _riccati_path(stats: DataStats, Q, R, w: RegWeights, parameterization: str) -> LqrSolution:
    """Optimal gain of a reduced program through its Riccati form.

    The program is LQR on the least-squares model whose input u also pays
    the gain deviation (u - K_LS x).T du (u - K_LS x), and under gram a second
    input, the closed-loop deviation, pays dx. Completing the square in u,
    u.T R u + (u - K_LS x).T du (u - K_LS x) = (u - F x).T (R + du) (u - F x)
    + x.T K_LS.T E K_LS x with F = (R + du)^-1 du K_LS and E = du (R + du)^-1 R,
    leaves LQR in the shifted input u - F x on (A_LS + B_LS F, B) with every
    weight a sum of positive semidefinite terms and no cross weight. A failed
    DARE or a gain with no Gramian (_dlyap: rho >= 1 - 1e-9), as from estimates
    (A_LS, B_LS) that are not stabilizable, raises SynthesisInfeasible.
    """
    Q, R, d0, du, dx = _reduced_weights(stats, Q, R, w, parameterization)
    gram = parameterization == "gram"
    program_id = "reduced-gram" if gram else "reduced-covar"
    n, m = stats.n, stats.m
    A_LS, B_LS, K_LS = stats.a_ls, stats.b_ls, stats.k_ls
    F = np.linalg.solve(R + du, du @ K_LS)
    if gram and w.lambda1 == 0.0:
        # A free closed loop costs nothing: A_cl = 0, P = I and K = F.
        K, A_cl, P = F, np.zeros((n, n)), np.eye(n)
    else:
        E = sym(du @ np.linalg.solve(R + du, R))
        B, r = B_LS, R + du
        if gram:
            B, r = np.hstack([B_LS, np.eye(n)]), np.zeros((m + n, m + n))
            r[:m, :m], r[m:, m:] = R + du, dx
        try:
            G, _ = _dare(A_LS + B_LS @ F, B, sym(Q + d0 + K_LS.T @ E @ K_LS), r)
            G[:m] += F  # the gain on the unshifted inputs; under covariance G = K
            K, A_cl = G[:m], A_LS + B @ G
            P = _dlyap(A_cl, _rho(A_cl))
        except (NoConvergence, UnstableMatrix) as exc:
            raise SynthesisInfeasible(program_id, "Infeasible") from exc
    # The SDP's optimum: nominal H2 cost plus the regularizer's effect.
    eff = _effect(K, A_cl, np.linalg.cholesky(P), stats, w)
    return LqrSolution(
        K=K,
        P=P,
        A_cl=A_cl,
        objective=float(np.trace(Q @ P) + np.trace(R @ K @ P @ K.T) + eff.total),
        status="Optimal",
        solver=None,
        program_id=program_id,
    )


def synth_reduced_gram(stats: DataStats, Q, R, w: RegWeights) -> LqrSolution:
    """Optimal gain of the reduced gram program through its Riccati form.

    The free closed-loop deviation A_cl - (A_LS + B_LS K) acts as a second
    input, so this is LQR on (A_LS, [B_LS I]) with input weights R and
    c1 cov_resid_x^-1, state weight Q + c3 cov_x0^-1 and the gain deviation
    K - K_LS weighted by c2 cov_resid_u^-1, where c_i = lambda_i / ell. With
    lambda1 = 0 the deviation costs nothing: A_cl = 0, P = I and K minimizes
    tr(R K K.T) + c2 |cov_resid_u^-1/2 (K - K_LS)|_F^2.
    """
    return _riccati_path(stats, Q, R, w, "gram")


def synth_reduced_covar(stats: DataStats, Q, R, w: RegWeights) -> LqrSolution:
    """Optimal gain of the reduced covariance program through its Riccati
    form: LQR on (A_LS, B_LS) with weights Q + lambda3 cov_x0^-1 and R, and
    the gain deviation K - K_LS weighted by lambda2 cov_resid_u^-1.

    Estimates (A_LS, B_LS) that are not stabilizable leave the program
    infeasible and raise SynthesisInfeasible.
    """
    return _riccati_path(stats, Q, R, w, "covariance")


# -- baseline data-driven programs (size grows with ell) ----------------------


def baseline_y_map(d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(X0^+, N) with Y = X0^+ P + N Z the general solution of X0 Y = P: one
    complete QR [X0; U0]^T = [Q1 Q2 Q3] R (n, m and ell - n - m columns) gives
    X0^+ = Q1 R[:n, :n]^-T and N = [Q3, Q2], an orthonormal basis of ker X0
    orthogonal to X0^+ whose leading columns Q3 span ker [X0; U0], the range
    of the projector Pi. [X0; U0] must have rank n + m, as compute_stats checks."""
    n, m = d.n, d.m
    q, r = np.linalg.qr(d.data0().T, mode="complete")
    return np.linalg.solve(r[:n, :n], q[:, :n].T).T, np.hstack((q[:, n + m :], q[:, n : n + m]))


def build_baseline_gram_problem(
    d: Dataset, stats: DataStats, Q, R, lam: float, projected: bool
) -> tuple[LmiProblem, SdpLayout]:
    """Raw-data program in the ell-column variable Y = G P with X0 Y = P.

    Y = X0^+ P + N Z (baseline_y_map) meets X0 Y = P for every Z, so each
    border C Y is the expression (C X0^+) P + (C N) Z over the slots P and Z,
    with no equality rows. As N is orthonormal and orthogonal to X0^+,
    tr(Y P^-1 Y^T) = tr((X0 X0^T)^-1 P) + sum_j z_j P^-1 z_j^T over the rows
    z_j of Z, and Pi Y = Q3 Z_b keeps the leading ell - n - m rows Z_b alone.
    So lam tr(Pi Y P^-1 Y^T Pi) is lam tr((X0 X0^T)^-1 P), plain only, plus
    a stack of members [[w_j, z_j], [*, P]] >= 0 priced lam w_j, one per row
    of Z, or of Z_b when projected.
    """
    Q, R = _check_qr(stats.n, stats.m, Q, R)
    lam = _weight("lambda", lam)
    n, ell = stats.n, stats.ell
    lay = SdpLayout()
    lay.add_sym("P", n)
    lay.add_full("Z", ell - n, n)
    x0_pinv, N = baseline_y_map(d)
    X1p, U0p, X1N, U0N = d.x1 @ x0_pinv, d.u0 @ x0_pinv, d.x1 @ N, d.u0 @ N
    # X0^+.T X0^+ = (X0 X0^T)^-1, and Pi X0^+ = 0.
    q_p = Q if projected else Q + lam * sym(x0_pinv.T @ x0_pinv)
    rows = ell - n - stats.m if projected else ell - n
    bounds = [("W", lambda Z: Z[..., :rows, None, :], np.array([[lam]]))] if rows else []
    a_cl, kp = (lambda P, Z: X1p @ P + X1N @ Z), (lambda P, Z: U0p @ P + U0N @ Z)
    return _h2_program(lay, q_p, a_cl, kp, R, bounds), lay


def synth_baseline_gram(
    d: Dataset, stats: DataStats, Q, R, lam: float, projected: bool
) -> LqrSolution:
    """Solve the baseline gram program, projected or plain, and extract K = U0 Y P^{-1}."""
    program_id = "baseline-gram-proj" if projected else "baseline-gram"
    return _synth_baseline(program_id, d, stats, Q, R, lam)


def build_baseline_covar_problem(
    stats: DataStats, Q, R, lam: float
) -> tuple[LmiProblem, SdpLayout]:
    """Covariance-parameterized baseline with the (n+m) x (n+m) slack Z.

    Z >= [P; K tilde] P^{-1} [P; K tilde]^T via one LMI; the regularizer
    enters the objective as lam * tr(Z cov_d0^{-1}).
    """
    Q, R = _check_qr(stats.n, stats.m, Q, R)
    lam = _weight("lambda", lam)
    # [P; Kt] joined on axis -2, the row axis of a matrix and of a stack alike.
    bounds = [("Z", lambda P, Kt: np.concatenate((P, Kt), axis=-2), lam * stats.cov_d0_inv)]
    return _lqr_program(stats.a_ls, stats.b_ls, Q, R, bounds)


def synth_baseline_covar(stats: DataStats, Q, R, lam: float) -> LqrSolution:
    """Solve the baseline covariance program and extract K = K tilde P^{-1}."""
    return _synth_baseline("baseline-covar", None, stats, Q, R, lam)


# The paper's result, one row per baseline program id: the baseline at lam
# equals its reduced twin, the reduced program at the weights twin(lam). Each
# row holds build(d, stats, Q, R, lam), the baseline's builder, and twin.
_BASELINES = {
    "baseline-gram": (
        lambda d, stats, Q, R, lam: build_baseline_gram_problem(d, stats, Q, R, lam, False),
        lambda lam: RegWeights(lambda1=lam, lambda2=lam, lambda3=lam),
    ),
    "baseline-gram-proj": (
        lambda d, stats, Q, R, lam: build_baseline_gram_problem(d, stats, Q, R, lam, True),
        lambda lam: RegWeights(lambda1=lam),
    ),
    "baseline-covar": (
        lambda d, stats, Q, R, lam: build_baseline_covar_problem(stats, Q, R, lam),
        lambda lam: RegWeights(lambda2=lam, lambda3=lam, parameterization="covariance"),
    ),
}


def _synth_baseline(program_id: str, d: Dataset, stats: DataStats, Q, R, lam) -> LqrSolution:
    """Solve the baseline program_id of `_BASELINES` on the record d and extract K."""
    return _solve_and_extract(*_BASELINES[program_id][0](d, stats, Q, R, lam), program_id)


# -- evaluation on the true plant ---------------------------------------------


def evaluate_on_truth(sol: LqrSolution, pm: PlantModel) -> TruthEvaluation:
    """Spectral radius and H2 cost (None at rho >= 1 - 1e-9) of the gain on the true plant."""
    K = _shaped(sol.K, (pm.m, pm.n), "K")
    A_cl = pm.A + pm.B @ K
    rho = _rho(A_cl)
    try:
        return TruthEvaluation(rho=rho, h2_sq=_h2(A_cl, rho, K, pm.Q, pm.R))
    except UnstableMatrix:
        return TruthEvaluation(rho=rho, h2_sq=None)
