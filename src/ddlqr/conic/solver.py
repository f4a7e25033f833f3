"""Interior-point solver for dense LMI problems.

Infeasible-start primal-dual method with Nesterov-Todd scaling and Mehrotra
predictor-corrector steps, dense Cholesky factorizations throughout. The
slack of every block is an independent iterate, so equality rows encoded as
paired one-dimensional blocks (whose feasible set has empty interior) need
no special handling.

The Schur complement M_ij = sum_b tr(F_bi W_b F_bj W_b) is assembled per
block from dense BLAS products, in the forms of SDPT3 (Toh, Todd & Tutuncu,
1999) and CVXOPT (Vandenberghe, 2010). Entry coefficients live in one dense
stack F per block, so their couplings are F_flat @ (W F W)_flat.T, and column
families keep closed-form pairwise terms. A declared slack corner, whose
packed coefficients form an identity, is eliminated analytically: with
Li = chol(W_cc)^-1 the correction is the Gram matrix of the whitened
couplings Y_i = Li (W F_i W)_cc Li.T, rank 2 for every family variable, and
the corner-corner operator is never formed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .problem import LmiProblem, smat, svec, svec_len

__all__ = ["SolverStatus", "SolverSettings", "ConicSolution", "solve"]


class SolverStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    MAX_ITERS = "MaxIters"
    NUMERICAL_ERROR = "NumericalError"


@dataclass
class SolverSettings:
    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iters: int = 200

    def __post_init__(self):
        if self.tol_gap <= 0 or self.tol_feas <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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


# Equality rows encoded as inequality pairs drive both pair slacks to zero,
# so the Schur complement's conditioning degrades as mu shrinks and the
# attainable residuals bottom out above the requested tolerances. A stalled
# iterate whose best snapshot sits below these caps is returned as optimal
# instead of being iterated into factorization breakdown; above them a stall
# is a genuine failure.
_FEAS_CAP = 1e-6
_GAP_CAP = 1e-6
_DUAL_CAP = 1e-5


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """Per-block NT scaling: lam (diagonal of the scaled point), R, Rinv,
    and the metric Wm = Rinv.T Rinv, so that Rinv S Rinv.T = R.T Z R = diag(lam)."""
    try:
        L_s = np.linalg.cholesky(S)
        L_z = np.linalg.cholesky(Z)
    except np.linalg.LinAlgError as exc:
        raise _FactorError(f"iterate lost positive definiteness: {exc}") from None
    U, lam, Vt = np.linalg.svd(L_z.T @ L_s)
    if np.min(lam) <= 0.0:
        raise _FactorError("NT scaling hit a zero singular value")
    root = np.sqrt(lam)
    R = L_s @ (Vt.T / root)
    Linv = scipy.linalg.solve_triangular(L_s, np.eye(S.shape[0]), lower=True)
    Rinv = (Vt * root[:, None]) @ Linv
    Wm = Rinv.T @ Rinv
    return lam, R, Rinv, Wm


def _boundary_step(lam: np.ndarray, D_scaled: np.ndarray) -> float:
    """Largest alpha with diag(lam) + alpha * D_scaled still PSD."""
    scale = np.sqrt(lam)
    Dn = D_scaled / np.outer(scale, scale)
    m = float(np.linalg.eigvalsh(0.5 * (Dn + Dn.T))[0])
    if m >= -1e-13:
        return np.inf
    return 1.0 / (-m)


def _pair_terms(A, B, C, D):
    """2 [A_ts B_qr + C_tr D_qs] at row (t, q), column (s, r): the coupling
    of two column families in row-major variable order."""
    T1, nq1, T2, nq2 = A.shape[0], B.shape[0], A.shape[1], B.shape[1]
    out = np.einsum("ts,qr->tqsr", A, B) + np.einsum("tr,qs->tqsr", C, D)
    return 2.0 * out.reshape(T1 * nq1, T2 * nq2)


class _CornerCoupling:
    """Whitened coupling of one block's ordinary variables to its slack corner.

    With Li = chol(W_cc)^-1 and W^ = W[:, :dc] Li.T, ordinary variable i
    couples to the corner through Y_i = W^.T F_i W^. Entry variables keep
    Y explicitly; a family variable (t, q) has the rank-2 form
    p_t h_q.T + h_q p_t.T with P = W^.T C and H = W^[col0:col0 + nq].T.
    The corner's Schur correction is then the Gram matrix <Y_i, Y_j>.
    """

    def __init__(self, cb, W, G, gp):
        dc = cb.corner.dc
        try:
            Lc = np.linalg.cholesky(W[:dc, :dc])
        except np.linalg.LinAlgError as exc:
            raise _FactorError(f"corner scaling not positive definite: {exc}") from None
        self.Li = scipy.linalg.solve_triangular(Lc, np.eye(dc), lower=True)
        Wh = W[:, :dc] @ self.Li.T
        self.Y = self.Li @ G[:, :dc, :dc] @ self.Li.T
        self.Yf = self.Y.reshape(cb.lv.size, dc * dc)
        self.PH = [
            (Wh.T @ f.C, Wh[f.col0 : f.col0 + f.varmat.shape[1]].T) for f in cb.families
        ]
        self.ne, self.sls = cb.lv.size, cb.fam_slices
        self.gp = gp
        self.dc, self.v0 = dc, cb.corner.var_start

    def reduce(self, Mb: np.ndarray) -> None:
        """Subtract the corner's Schur correction <Y_i, Y_j> from Mb."""
        ne = self.ne
        Mb[:ne, :ne] -= self.Yf @ self.Yf.T
        for sl, (P, H) in zip(self.sls, self.PH):
            EF = 2.0 * (P.T @ self.Y @ H).reshape(ne, sl.stop - sl.start)
            Mb[:ne, sl] -= EF
            Mb[sl, :ne] -= EF.T
            for sl2, (P2, H2) in zip(self.sls, self.PH):
                Mb[sl, sl2] -= _pair_terms(P.T @ P2, H.T @ H2, P.T @ H2, H.T @ P2)

    def project(self, Th: np.ndarray) -> np.ndarray:
        """<Y_i, Th> for every ordinary variable i."""
        out = [self.Yf @ Th.ravel()]
        out += [2.0 * (P.T @ Th @ H).ravel() for P, H in self.PH]
        return np.concatenate(out)

    def combine(self, x: np.ndarray) -> np.ndarray:
        """sum_i x_i Y_i."""
        S = (x[: self.ne] @ self.Yf).reshape(self.dc, self.dc)
        for sl, (P, H) in zip(self.sls, self.PH):
            PD = P @ x[sl].reshape(P.shape[1], H.shape[1]) @ H.T
            S += PD + PD.T
        return S


class _Factorization:
    """One iteration's Schur complement M_ij = sum_b tr(F_i W_b F_j W_b)
    over the ordinary variables, with every declared slack corner eliminated.

    Each block contributes one dense local matrix over its variables gv,
    added once at M[gp, gp]: entry pairs come from the coefficient stack as
    F_flat @ (W F W)_flat.T, pairs involving a column family from its closed
    forms, and a corner subtracts the Gram matrix of its whitened couplings.
    """

    def __init__(self, compiled, Wms, oidx, pos_of, num_vars):
        self.compiled = compiled
        self.Wms = Wms
        self.oidx = oidx
        self.num_vars = num_vars
        ko = oidx.size
        M = np.zeros((ko, ko))
        self.corners = []

        for cb, W in zip(compiled, Wms):
            gp = pos_of[cb.gv]
            G = W @ cb.F @ W
            Mb = self._block_schur(cb, W, G)
            if cb.corner is not None:
                cc = _CornerCoupling(cb, W, G, gp)
                cc.reduce(Mb)
                self.corners.append(cc)
            M[np.ix_(gp, gp)] += Mb

        scale = float(np.max(np.diag(M))) if ko else 1.0
        if not np.isfinite(scale) or scale <= 0.0:
            scale = 1.0
        self.factor = None
        for jitter in (0.0, 1e-12 * scale, 1e-9 * scale):
            try:
                self.factor = scipy.linalg.cho_factor(
                    M + jitter * np.eye(ko) if jitter else M, lower=True
                )
                break
            except np.linalg.LinAlgError:
                continue
        if self.factor is None:
            raise _FactorError("Schur complement not positive definite after jitter")

    @staticmethod
    def _block_schur(cb, W, G) -> np.ndarray:
        """tr(F_i W F_j W) over the block's ordinary variables gv."""
        ne = cb.lv.size
        Mb = np.empty((cb.gv.size, cb.gv.size))
        Mb[:ne, :ne] = cb.F_flat @ G.reshape(ne, cb.dim * cb.dim).T
        Us = [W @ f.C for f in cb.families]
        for f1, sl1, U1 in zip(cb.families, cb.fam_slices, Us):
            c1 = slice(f1.col0, f1.col0 + f1.varmat.shape[1])
            EF = 2.0 * (G[:, c1, :] @ f1.C).transpose(0, 2, 1).reshape(ne, f1.varmat.size)
            Mb[:ne, sl1] = EF
            Mb[sl1, :ne] = EF.T
            for f2, sl2, U2 in zip(cb.families, cb.fam_slices, Us):
                c2 = slice(f2.col0, f2.col0 + f2.varmat.shape[1])
                Mb[sl1, sl2] = _pair_terms(f1.C.T @ U2, W[c1, c2], U1[c2].T, U2[c1])
        return Mb

    def solve_kkt(self, E_list, rd):
        """Solve M dy = A*(E) - rd, with corner back-substitution and one
        step of iterative refinement.

        The refinement residual comes from the operator itself,
        sum_b A_b*(W_b A_b(dy) W_b), not from the assembled M: the residuals
        that decide convergence are measured through the same apply and
        adjoint, so dy is made consistent with them to working precision.
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
        # Corner rows of the full system read M_cc dW + M_co dy = rhs_c with
        # M_cc dW = W_cc dW W_cc, so dW = Li.T (Th - sum_i dy_i Y_i) Li.
        r = full_rhs[self.oidx].copy()
        Ths = []
        for cc in self.corners:
            Trw = smat(full_rhs[cc.v0 : cc.v0 + svec_len(cc.dc)], cc.dc)
            Th = cc.Li @ Trw @ cc.Li.T
            r[cc.gp] -= cc.project(Th)
            Ths.append(Th)
        sol = scipy.linalg.cho_solve(self.factor, r)
        dy = np.zeros(self.num_vars)
        dy[self.oidx] = sol
        for cc, Th in zip(self.corners, Ths):
            dW = cc.Li.T @ (Th - cc.combine(sol[cc.gp])) @ cc.Li
            dy[cc.v0 : cc.v0 + svec_len(cc.dc)] = svec(0.5 * (dW + dW.T))
        return dy


def _empty_solution(c, k, t0):
    if np.any(c != 0.0):
        return ConicSolution(
            status=SolverStatus.UNBOUNDED,
            y=np.zeros(k),
            objective=-np.inf,
            gap=0.0,
            iters=0,
            wall_time=time.perf_counter() - t0,
            message="no constraints restrain a nonzero objective",
        )
    return ConicSolution(
        status=SolverStatus.OPTIMAL,
        y=np.zeros(k),
        objective=0.0,
        gap=0.0,
        iters=0,
        wall_time=time.perf_counter() - t0,
        primal_res=0.0,
        dual_res=0.0,
    )


def solve(problem: LmiProblem, settings: SolverSettings | None = None) -> ConicSolution:
    """Minimize c.T y over the intersection of the problem's LMI blocks.

    Statuses are values, never exceptions: Infeasible/Unbounded come from
    residual-growth heuristics, NumericalError from factorization failure or
    stagnation, MaxIters from the iteration cap.
    """
    t0 = time.perf_counter()
    cfg = settings if settings is not None else SolverSettings()
    k = problem.num_vars
    c_raw = problem.objective
    # Large objective coefficients put the dual solution far from the unit
    # initialization and the first Newton directions overshoot the cone.
    # Solve with a scaled-down objective and map the reported value back.
    s_obj = max(1.0, float(np.max(np.abs(c_raw))) if k else 1.0)
    c = c_raw / s_obj
    compiled = problem.compiled()

    if not compiled:
        return _empty_solution(c, k, t0)

    touched = np.zeros(k, dtype=bool)
    for cb in compiled:
        touched[cb.vars_touched()] = True
    if np.any(c[~touched] != 0.0):
        return ConicSolution(
            status=SolverStatus.UNBOUNDED,
            y=np.zeros(k),
            objective=-np.inf,
            gap=0.0,
            iters=0,
            wall_time=time.perf_counter() - t0,
            message="objective moves along an unconstrained variable",
        )

    corner_mask = np.zeros(k, dtype=bool)
    for cb in compiled:
        if cb.corner is not None:
            corner_mask[cb.corner.var_start : cb.corner.var_start + svec_len(cb.corner.dc)] = True
    oidx = np.flatnonzero(touched & ~corner_mask)
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
    message = ""
    it = 0
    obj = float(c @ y)
    gap = sum_dim
    pres = dres = np.inf

    feas_cap = max(_FEAS_CAP, cfg.tol_feas)
    gap_cap = max(_GAP_CAP, cfg.tol_gap)
    dual_cap = max(_DUAL_CAP, cfg.tol_feas)
    snap_pmerit = np.inf

    def snap_ok():
        return (
            snap is not None
            and snap["pres"] <= feas_cap
            and snap["relgap"] <= gap_cap
        )

    for it in range(1, cfg.max_iters + 1):
        Sy = [cb.apply(y) for cb in compiled]
        Rp = [S[i] - Sy[i] for i in range(len(compiled))]
        rd = c - problem.adjoint(Z)
        gap = float(sum(np.vdot(S[i], Z[i]) for i in range(len(compiled))))
        obj = float(c @ y)
        pres = max(
            float(np.linalg.norm(Rp[i], "fro")) / normF0[i] for i in range(len(compiled))
        )
        dres = float(np.linalg.norm(rd)) / cnorm
        # Convergence is judged in the problem's own scale: measuring the gap
        # against the scaled-down objective would relax it by s_obj.
        relgap = s_obj * gap / (1.0 + s_obj * abs(obj))
        merit = max(pres, dres, relgap)

        if not np.isfinite(merit):
            status, message = SolverStatus.NUMERICAL_ERROR, "non-finite iterate"
            break
        if pres <= cfg.tol_feas and dres <= cfg.tol_feas and relgap <= cfg.tol_gap:
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
        # The returned iterate is the best-primal one: in the degenerate tail
        # the dual residual decays while (pres, relgap) keep polishing, so
        # dual quality gates insertion but never selects the snapshot.
        pmerit = max(pres, relgap)
        if dres <= dual_cap and pmerit < snap_pmerit:
            snap_pmerit = pmerit
            snap = {
                "y": y.copy(), "obj": obj, "gap": gap,
                "pres": pres, "dres": dres, "relgap": relgap,
            }
        if pmerit < 0.9 * best_merit:
            best_merit = pmerit
            stall = 0
        else:
            stall += 1
            if stall >= 4 and snap_ok():
                status = SolverStatus.OPTIMAL
                message = "converged to attainable precision"
                y, obj, gap = snap["y"], snap["obj"], snap["gap"]
                pres, dres = snap["pres"], snap["dres"]
                break
            if stall >= 12 and pmerit <= 1e-2 or stall >= 25:
                status, message = SolverStatus.NUMERICAL_ERROR, "stagnation"
                break

        try:
            scal = [_nt_scaling(S[i], Z[i]) for i in range(len(compiled))]
            fact = _Factorization(
                compiled, [sc[3] for sc in scal], oidx, pos_of, k
            )
        except _FactorError as exc:
            if snap_ok():
                status = SolverStatus.OPTIMAL
                message = f"attainable precision; next factorization failed: {exc}"
                y, obj, gap = snap["y"], snap["obj"], snap["gap"]
                pres, dres = snap["pres"], snap["dres"]
            else:
                status, message = SolverStatus.NUMERICAL_ERROR, str(exc)
            break

        mu = gap / sum_dim

        # Predictor: pure Newton step toward the boundary.
        E_aff = [
            -Z[i] + scal[i][3] @ Rp[i] @ scal[i][3] for i in range(len(compiled))
        ]
        dy_aff = fact.solve_kkt(E_aff, rd)
        # One common step length for (y, S) and Z: keeps both residual
        # recursions shrinking at the same rate, which separate step sizes
        # do not guarantee for infeasible starts.
        a_aff = 1.0
        ds_aff = []
        dz_aff = []
        for i, cb in enumerate(compiled):
            lam, R, Rinv, Wm = scal[i]
            dS = cb.apply_lin(dy_aff) - Rp[i]
            dst = Rinv @ dS @ Rinv.T
            dst = 0.5 * (dst + dst.T)
            dzt = -np.diag(lam) - dst
            ds_aff.append(dst)
            dz_aff.append(dzt)
            a_aff = min(a_aff, 0.9995 * _boundary_step(lam, dst))
            a_aff = min(a_aff, 0.9995 * _boundary_step(lam, dzt))

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
            lam, R, Rinv, Wm = scal[i]
            cross = ds_aff[i] @ dz_aff[i]
            C_raw = sigma * mu * np.eye(lam.size) - np.diag(lam**2) - 0.5 * (cross + cross.T)
            C_mat = 2.0 * C_raw / np.add.outer(lam, lam)
            C_mats.append(C_mat)
            E_cor.append(Rinv.T @ C_mat @ Rinv + Wm @ Rp[i] @ Wm)
        dy = fact.solve_kkt(E_cor, rd)

        a_max = np.inf
        ds_list = []
        dz_list = []
        for i, cb in enumerate(compiled):
            lam, R, Rinv, Wm = scal[i]
            dS = cb.apply_lin(dy) - Rp[i]
            dst = Rinv @ dS @ Rinv.T
            dst = 0.5 * (dst + dst.T)
            dzt = C_mats[i] - dst
            ds_list.append(dS)
            dz_list.append(Rinv.T @ dzt @ Rinv)
            a_max = min(a_max, _boundary_step(lam, dst))
            a_max = min(a_max, _boundary_step(lam, dzt))

        gamma = 0.9 + 0.09 * min(1.0, a_aff)
        alpha = min(1.0, gamma * a_max)
        if alpha < 1e-10:
            tiny_steps += 1
            if tiny_steps >= 2:
                if snap_ok():
                    status = SolverStatus.OPTIMAL
                    message = "attainable precision; step lengths collapsed"
                    y, obj, gap = snap["y"], snap["obj"], snap["gap"]
                    pres, dres = snap["pres"], snap["dres"]
                else:
                    status, message = SolverStatus.NUMERICAL_ERROR, "step lengths collapsed"
                break
        else:
            tiny_steps = 0

        y = y + alpha * dy
        for i in range(len(compiled)):
            S[i] = 0.5 * ((S[i] + alpha * ds_list[i]) + (S[i] + alpha * ds_list[i]).T)
            Z[i] = 0.5 * ((Z[i] + alpha * dz_list[i]) + (Z[i] + alpha * dz_list[i]).T)

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
