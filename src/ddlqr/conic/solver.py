"""Interior-point solver for dense LMI problems.

Infeasible-start primal-dual method with Nesterov-Todd scaling and Mehrotra
predictor-corrector steps, dense Cholesky factorizations throughout. The
slack of every block is an independent iterate. Problems carry inequality
blocks only: an affine equation is met by parameterizing its solution set,
as the baseline gram program does for X0 Y = P.

The Schur complement M_ij = sum_b tr(F_bi W_b F_bj W_b) is assembled per
block from dense BLAS products, in the forms of SDPT3 (Toh, Todd & Tutuncu,
1999) and CVXOPT (Vandenberghe, 2010). A declared slack corner, whose packed
coefficients form an identity, is eliminated analytically, and every block
takes one formula with or without one: with W = L L.T read off the NT
scaling, the corner-eliminated term is the Gram matrix of the whitened
columns L.T F_i[:, dc:] L[dc:, dc:], and the corner-corner operator is never
formed.

The Schur complement M = C C.T is factored by Cholesky, with a small
diagonal jitter when that fails, and applied as Ci.T (Ci r) with Ci = C^-1,
never through M^-1. C's condition number is the square root of M's, and M
grows ill conditioned as the iterates approach the optimum: directions taken
through M^-1 are poorer there, and more solves end on a snapshot rather
than by the convergence test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..matlin import sym
from .problem import SQRT2, LmiProblem, smat, svec

__all__ = ["SolverStatus", "ConicSolution", "solve"]


class SolverStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    MAX_ITERS = "MaxIters"
    NUMERICAL_ERROR = "NumericalError"


@dataclass
class ConicSolution:
    status: SolverStatus
    y: np.ndarray
    objective: float
    gap: float
    iters: int
    wall_time: float
    primal_res: float = float("nan")
    dual_res: float = float("nan")
    message: str = ""

    @property
    def optimal(self) -> bool:
        return self.status is SolverStatus.OPTIMAL


class _FactorError(Exception):
    pass


# Every program asks for 1e-11 in the residuals and the relative gap: gains
# are compared at 1e-5, and near a flat optimum the gain error scales like
# the square root of the objective gap. That target is below what the reduced
# and model SDPs attain: as mu shrinks the Schur complement's conditioning
# degrades and the residuals bottom out above it (snapshot dual residuals up
# to 1.4e-6 on the paper grids). So the snapshot is the iterate with the least
# primal merit max(primal residual, relative gap) among those whose dual
# residual is at most _DUAL_CAP, and every breakdown returns it as optimal
# when that merit is at most _PRIMAL_CAP; above it the breakdown is a failure.
_TOL = 1e-11
_MAX_ITERS = 200
_PRIMAL_CAP = 1e-6
_DUAL_CAP = 1e-5


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """Per-block NT scaling: lam (diagonal of the scaled point), Rinv, the
    metric Wm = Rinv.T Rinv, so that Rinv S Rinv.T = R.T Z R = diag(lam)
    with R = Rinv^-1, and L, lower triangular with Wm = L L.T. L is read off
    the R factor of Rinv's QR: a Cholesky factor of Wm can fail on iterates
    where Wm is too ill-conditioned to factor again."""
    try:
        L_s = np.linalg.cholesky(S)
        L_z = np.linalg.cholesky(Z)
    except np.linalg.LinAlgError as exc:
        raise _FactorError(f"iterate lost positive definiteness: {exc}") from None
    U, lam, Vt = np.linalg.svd(L_z.T @ L_s)
    if np.min(lam) <= 0.0:
        raise _FactorError("NT scaling hit a zero singular value")
    root = np.sqrt(lam)
    Rinv = (Vt * root[:, None]) @ np.linalg.inv(L_s)
    Wm = Rinv.T @ Rinv
    return lam, Rinv, Wm, np.linalg.qr(Rinv, mode="r").T


def _boundary_step(lam: np.ndarray, D_scaled: np.ndarray) -> float:
    """Largest alpha with diag(lam) + alpha * D_scaled still PSD. D_scaled is
    exactly symmetric (every caller builds it so), and so is Dn."""
    scale = np.sqrt(lam)
    Dn = D_scaled / np.outer(scale, scale)
    m = float(np.linalg.eigvalsh(Dn)[0])
    if m >= -1e-13:
        return np.inf
    return 1.0 / (-m)


class _Factorization:
    """One iteration's Schur complement M_ij = sum_b tr(F_i W_b F_j W_b)
    over the ordinary variables, with every declared slack corner eliminated.

    With W = L L.T, L lower triangular, a block's corner-eliminated term is
    tr(F_i W F_j W) - tr(T F_i T F_j) with T = L[:, :dc] L[:, :dc].T, and
    W - T vanishes outside its trailing block. So the term is the Gram
    matrix H H.T of H_i = L.T F_i[:, dc:] L[dc:, dc:] with the dc border rows
    scaled by sqrt(2), which count in both triangles; without a corner it is
    the plain tr(F_i W F_j W). Each block adds H H.T once at M[gp, gp].
    """

    def __init__(self, compiled, Wms, Ls, oidx, pos_of, num_vars):
        self.compiled = compiled
        self.Wms = Wms
        self.oidx = oidx
        self.num_vars = num_vars
        ko = oidx.size
        M = np.zeros((ko, ko))
        # (block, Li = L_cc^-1, Wh = L[:, :dc]) for each corner
        self.corners = []

        for cb, L in zip(compiled, Ls):
            dc = cb.dc
            H = L.T @ cb.F @ L[dc:, dc:]
            H[:, :dc] *= SQRT2
            H = H.reshape(cb.lv.size, cb.dim * (cb.dim - dc))
            gp = pos_of[cb.lv]
            M[np.ix_(gp, gp)] += H @ H.T
            if dc:
                self.corners.append((cb, np.linalg.inv(L[:dc, :dc]), L[:, :dc]))

        scale = float(np.max(np.diag(M))) if ko else 1.0
        if not np.isfinite(scale) or scale <= 0.0:
            scale = 1.0
        # M = C C.T, applied as Ci.T (Ci r) with Ci = C^-1 (module docstring).
        for jitter in (0.0, 1e-12 * scale, 1e-9 * scale):
            try:
                self.chol = np.linalg.cholesky(M + jitter * np.eye(ko) if jitter else M)
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise _FactorError("Schur complement not positive definite after jitter")
        self.chol_inv = np.linalg.inv(self.chol)

    def solve_kkt(self, E_list, rd):
        """Solve M dy = A*(E) - rd, with corner back-substitution and one
        step of iterative refinement.

        The refinement residual comes from the operator itself,
        sum_b A_b*(W_b A_b(dy) W_b), not from the assembled M: the residuals
        that decide convergence are measured through the same apply and
        adjoint, so dy is made consistent with them to working precision.
        Without the refinement every status stayed Optimal, but fewer solves
        passed the convergence test (107 rather than 154 of 300 random LMIs,
        33 rather than 36 of 125 synthesis SDPs) for about 30 % less time
        per baseline iteration at ell = 30 to 90; CVXOPT's cone solvers also
        refine once for matrix inequalities.
        """
        g = np.zeros(self.num_vars)
        for cb, E in zip(self.compiled, E_list):
            cb.adjoint(E, g)
        full_rhs = g - rd
        dy = self._reduced_solve(full_rhs)
        g[:] = 0.0
        for cb, W in zip(self.compiled, self.Wms):
            cb.adjoint(W @ cb.apply_lin(dy) @ W, g)
        return dy + self._reduced_solve(full_rhs - g)

    def _reduced_solve(self, full_rhs):
        # Corner rows of the full system read W_cc dW W_cc + (W A_o(dy) W)_cc
        # = rhs_c, with A_o the block's ordinary apply. With Th = Li rhs_c Li.T
        # the ordinary rows lose the block's adjoint at Wh Th Wh.T, and then
        # dW = Li.T (Th - Wh.T A_o(dy) Wh) Li.
        g = np.zeros(self.num_vars)
        Ths = []
        for cb, Li, Wh in self.corners:
            Th = Li @ smat(full_rhs[cb.corner], cb.dc) @ Li.T
            cb.adjoint(Wh @ Th @ Wh.T, g)
            Ths.append(Th)
        dy = np.zeros(self.num_vars)
        dy[self.oidx] = self.chol_inv.T @ (self.chol_inv @ (full_rhs - g)[self.oidx])
        # apply_lin reads the corner entries of dy, still zero here: A_o(dy).
        dWs = [
            Li.T @ (Th - Wh.T @ cb.apply_lin(dy) @ Wh) @ Li
            for (cb, Li, Wh), Th in zip(self.corners, Ths)
        ]
        for (cb, _, _), dW in zip(self.corners, dWs):
            dy[cb.corner] = svec(sym(dW))
        return dy


def _trivial_solution(k: int, t0: float, unbounded_because: str = "") -> ConicSolution:
    """y = 0, decided before any iteration: Unbounded for the given reason
    or, without one, Optimal for a problem with a zero objective."""
    res = np.nan if unbounded_because else 0.0
    return ConicSolution(
        status=SolverStatus.UNBOUNDED if unbounded_because else SolverStatus.OPTIMAL,
        y=np.zeros(k),
        objective=-np.inf if unbounded_because else 0.0,
        gap=0.0,
        iters=0,
        wall_time=time.perf_counter() - t0,
        primal_res=res,
        dual_res=res,
        message=unbounded_because,
    )


def _direction(cb, scal, dy, Rp, C):
    """One block's search direction and its largest feasible step.

    dS = A(dy) - Rp is the slack step; in the scaled space it is
    Rinv dS Rinv.T, and the dual step there is C minus it. The step is the
    largest alpha that keeps both diag(lam) + alpha * step PSD.
    """
    lam, Rinv, _, _ = scal
    dS = cb.apply_lin(dy) - Rp
    dst = sym(Rinv @ dS @ Rinv.T)
    dzt = C - dst
    return dS, dst, dzt, min(_boundary_step(lam, dst), _boundary_step(lam, dzt))


def solve(problem: LmiProblem) -> ConicSolution:
    """Minimize c.T y over the intersection of the problem's LMI blocks.

    Statuses are values, never exceptions. Optimal with an empty message
    means the convergence test passed: both residuals and the relative gap
    at most _TOL. Infeasible and Unbounded come from residual-growth
    heuristics, MaxIters from the _MAX_ITERS cap. Every other exit is a
    breakdown: a non-finite iterate, stagnation, a failed factorization or
    two collapsed steps. One rule decides them all: the snapshot is returned
    as Optimal with message "attainable precision; <reason>" when its primal
    merit is at most _PRIMAL_CAP, else the status is NumericalError with the
    reason.
    """
    t0 = time.perf_counter()
    k = problem.num_vars
    c_raw = problem.objective
    # Large objective coefficients put the dual solution far from the unit
    # initialization and the first Newton directions overshoot the cone.
    # Solve with a scaled-down objective and map the reported value back.
    s_obj = max(1.0, float(np.max(np.abs(c_raw))) if k else 1.0)
    c = c_raw / s_obj
    compiled = problem.compiled()

    if not compiled:
        reason = "no constraints restrain a nonzero objective" if np.any(c != 0.0) else ""
        return _trivial_solution(k, t0, reason)

    # The variable partition LmiProblem.new_block checked and recorded.
    if np.any(c[~(problem._ordinary | problem._corner)] != 0.0):
        return _trivial_solution(k, t0, "objective moves along an unconstrained variable")
    oidx = np.flatnonzero(problem._ordinary)
    pos_of = np.full(k, -1, dtype=np.intp)
    pos_of[oidx] = np.arange(oidx.size)

    dims = np.array([cb.dim for cb in compiled])
    sum_dim = float(dims.sum())
    normF0 = np.array([1.0 + np.linalg.norm(cb.F0, "fro") for cb in compiled])
    cnorm = 1.0 + float(np.linalg.norm(c))

    y = np.zeros(k)
    S = [normF0[i] * np.eye(cb.dim) for i, cb in enumerate(compiled)]
    Z = [np.eye(cb.dim) for cb in compiled]

    best_merit = np.inf
    stall = 0
    tiny_steps = 0
    snap = None
    status = SolverStatus.MAX_ITERS
    message = breakdown = ""
    it = 0
    obj = float(c @ y)
    gap = sum_dim
    pres = dres = np.inf

    snap_pmerit = np.inf

    for it in range(1, _MAX_ITERS + 1):
        Sy = [cb.apply(y) for cb in compiled]
        Rp = [S[i] - Sy[i] for i in range(len(compiled))]
        rd = c - problem.adjoint(Z)
        gap = float(sum(np.vdot(S[i], Z[i]) for i in range(len(compiled))))
        obj = float(c @ y)
        # np.max, unlike max, carries a NaN in any term into the result.
        pres = float(np.max([np.linalg.norm(R, "fro") for R in Rp] / normF0))
        dres = float(np.linalg.norm(rd)) / cnorm
        # Convergence is judged in the problem's own scale: measuring the gap
        # against the scaled-down objective would relax it by s_obj.
        relgap = s_obj * gap / (1.0 + s_obj * abs(obj))
        merit = float(np.max([pres, dres, relgap]))

        if not np.isfinite(merit):
            breakdown = "non-finite iterate"
            break
        if merit <= _TOL:
            status = SolverStatus.OPTIMAL
            break
        if obj <= -1e10 and pres <= 1e-6:
            status, message = SolverStatus.UNBOUNDED, "objective diverges along feasible iterates"
            break
        zn = float(sum(np.linalg.norm(Zb, "fro") for Zb in Z))
        if zn >= 1e10:
            f0z = float(sum(np.vdot(cb.F0, Zb) for cb, Zb in zip(compiled, Z)))
            adj_ratio = float(np.linalg.norm(c - rd)) / zn
            if f0z < 0.0 and adj_ratio <= 1e-8:
                status, message = SolverStatus.INFEASIBLE, "dual improving ray detected"
                break
        try:
            scal = [_nt_scaling(S[i], Z[i]) for i in range(len(compiled))]
        except _FactorError as exc:
            breakdown = f"next factorization failed: {exc}"
            break
        # The returned iterate is the best-primal one whose slacks factored:
        # in the degenerate tail the dual residual decays while (pres,
        # relgap) keep polishing, so dual quality gates insertion but never
        # selects the snapshot.
        pmerit = max(pres, relgap)
        if dres <= _DUAL_CAP and pmerit < snap_pmerit:
            snap_pmerit = pmerit
            snap = (y.copy(), obj, gap, pres, dres)
        if pmerit < 0.9 * best_merit:
            best_merit = pmerit
            stall = 0
        else:
            stall += 1
            # A stall ends the solve sooner when the snapshot already meets the cap.
            snap_ok = snap_pmerit <= _PRIMAL_CAP
            if stall >= 4 and snap_ok or stall >= 12 and pmerit <= 1e-2 or stall >= 25:
                breakdown = "stagnation"
                break

        _, _, Wms, Ls = zip(*scal)
        try:
            fact = _Factorization(compiled, Wms, Ls, oidx, pos_of, k)
        except _FactorError as exc:
            breakdown = f"next factorization failed: {exc}"
            break

        mu = gap / sum_dim

        # Predictor: pure Newton step toward the boundary.
        E_aff = [-Z[i] + Wms[i] @ Rp[i] @ Wms[i] for i in range(len(compiled))]
        dy_aff = fact.solve_kkt(E_aff, rd)
        aff = [
            _direction(cb, scal[i], dy_aff, Rp[i], -np.diag(scal[i][0]))
            for i, cb in enumerate(compiled)
        ]
        _, ds_aff, dz_aff, steps = zip(*aff)
        # One common step length for (y, S) and Z: keeps both residual
        # recursions shrinking at the same rate, which separate step sizes
        # do not guarantee for infeasible starts.
        a_aff = min(1.0, 0.9995 * min(steps))

        mu_aff = 0.0
        for i in range(len(compiled)):
            lam = scal[i][0]
            Sa = np.diag(lam) + a_aff * ds_aff[i]
            Za = np.diag(lam) + a_aff * dz_aff[i]
            mu_aff += float(np.vdot(Sa, Za))
        mu_aff /= sum_dim
        sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

        # Corrector with Mehrotra's second-order term.
        E_cor = []
        C_mats = []
        for i in range(len(compiled)):
            lam, Rinv, Wm, _ = scal[i]
            cross = ds_aff[i] @ dz_aff[i]
            C_raw = sigma * mu * np.eye(lam.size) - np.diag(lam**2) - sym(cross)
            C_mat = 2.0 * C_raw / np.add.outer(lam, lam)
            C_mats.append(C_mat)
            E_cor.append(Rinv.T @ C_mat @ Rinv + Wm @ Rp[i] @ Wm)
        dy = fact.solve_kkt(E_cor, rd)

        cor = [_direction(cb, scal[i], dy, Rp[i], C_mats[i]) for i, cb in enumerate(compiled)]
        ds_list, _, dzt_list, steps = zip(*cor)
        a_max = min(steps)

        gamma = 0.9 + 0.09 * min(1.0, a_aff)
        alpha = min(1.0, gamma * a_max)
        if alpha < 1e-10:
            tiny_steps += 1
            if tiny_steps >= 2:
                breakdown = "step lengths collapsed"
                break
        else:
            tiny_steps = 0

        y = y + alpha * dy
        for i, (_, Rinv, _, _) in enumerate(scal):
            S[i] = sym(S[i] + alpha * ds_list[i])
            Z[i] = sym(Z[i] + alpha * (Rinv.T @ dzt_list[i] @ Rinv))

    if breakdown and snap_pmerit <= _PRIMAL_CAP:
        status, message = SolverStatus.OPTIMAL, f"attainable precision; {breakdown}"
        y, obj, gap, pres, dres = snap
    elif breakdown:
        status, message = SolverStatus.NUMERICAL_ERROR, breakdown
    return ConicSolution(
        status=status,
        y=y,
        objective=s_obj * obj,
        gap=s_obj * gap,
        iters=it,
        wall_time=time.perf_counter() - t0,
        primal_res=pres,
        dual_res=dres,
        message=message,
    )
