"""Interior-point solver for dense LMI problems.

Infeasible-start primal-dual method with Nesterov-Todd scaling and Mehrotra
predictor-corrector steps, dense Cholesky factorizations throughout. The
slack of every block is an independent iterate. Problems carry inequality
blocks only: an affine equation is met by parameterizing its solution set,
as the baseline gram program does for X0 Y = P.

Every block is a (g, d, d) stack of members of one shape, and each per-block
step runs once per stack through numpy's stacked linalg and matmul. Every
sum over members runs member by member in order (gather, _mdot, one bincount
for M), so a stack takes bitwise the steps of its members one by one.

The Schur complement M_ij = sum_b tr(F_bi W_b F_bj W_b) is the sum of every
member's Gram matrix, in the forms of SDPT3 (Toh, Todd & Tutuncu, 1999) and
CVXOPT (Vandenberghe, 2010). A declared slack corner is eliminated
analytically, without forming its corner-corner operator (_Factorization),
and its step is back-substituted in closed form. Each corner's iterate,
step, residual and cost stay (g, dc, dc) stacks, and y's corner entries are
packed once, at exit. The predictor reads both boundaries of its step from
one eigvalsh per block, and only the corrector's KKT solve is refined.

An iterate that meets the primal and gap targets, where the dual residual
tends to stall, tries a final dual correction of Z alone with its Schur
factor (_dual_correction), kept if it meets all three, as SDPT3 and CVXOPT do.

M = C C.T is factored by Cholesky, with a small diagonal jitter when that
fails, and applied as Ci.T (Ci r) with Ci = C^-1, never through M^-1: C's
condition number is the square root of M's, and M grows ill conditioned
near the optimum, where directions taken through M^-1 are poorer and more
solves end on a snapshot rather than by the convergence test. Ci and each
corner's L_cc^-1 come from _tril_inv, and the NT scaling inverts no factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..matlin import _eye, sym
from .problem import SQRT2, LmiProblem, gather, smat, svec, svec_len

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


# A solve ends by convergence, an infeasible or unbounded ray, the
# _MAX_ITERS cap or a breakdown: a non-finite iterate or a failed
# factorization. Convergence asks 1e-11 of the residuals and the relative
# gap, as gains are compared at 1e-5 and their error scales like the square
# root of the gap. Solves that no final dual correction ends stop short: as mu
# shrinks the Schur complement degrades until a factorization fails (dual
# residuals of snapshots reach 1.4e-6 on the paper grids). So a
# breakdown returns as optimal the snapshot, the iterate with the least
# max(primal residual, relative gap) among those whose dual residual is at
# most _DUAL_CAP, if that merit is at most _PRIMAL_CAP.
_TOL = 1e-11
_MAX_ITERS = 200
_PRIMAL_CAP = 1e-6
_DUAL_CAP = 1e-5


def _t(X: np.ndarray) -> np.ndarray:
    """The transpose of each matrix in a stack."""
    return X.swapaxes(-1, -2)


def _diag(lam: np.ndarray) -> np.ndarray:
    """The stack of diagonal matrices diag(lam[j])."""
    return lam[..., None] * _eye(lam.shape[-1])


def _mdot(A: list, B: list) -> float:
    """sum_b tr(A_b B_b) over blocks' (g, ...) stacks, member by member in
    order: a stack sums exactly as its members declared one by one would."""
    return float(np.sum(np.concatenate([(a * b).sum(axis=(1, 2)) for a, b in zip(A, B)])))


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """NT scaling of each member of a block's (g, d, d) stack: lam (the
    diagonal of the scaled point), Rinv, the metric Wm = Rinv.T Rinv, so that
    Rinv S Rinv.T = R.T Z R = diag(lam) with R = Rinv^-1, and L, lower
    triangular with Wm = L L.T. L is read off the R factor of Rinv's QR: a
    Cholesky factor of Wm can fail on iterates where Wm is too
    ill-conditioned to factor again."""
    try:
        L_s = np.linalg.cholesky(S)
        L_z = np.linalg.cholesky(Z)
    except np.linalg.LinAlgError as exc:
        raise _FactorError(f"iterate lost positive definiteness: {exc}") from None
    U, lam, _ = np.linalg.svd(_t(L_z) @ L_s)
    if np.min(lam) <= 0.0:
        raise _FactorError("NT scaling hit a zero singular value")
    # L_z.T L_s = U diag(lam) Vt gives Vt L_s^-1 = diag(lam)^-1 U.T L_z.T, so
    # Rinv = diag(lam)^1/2 Vt L_s^-1 needs no inverse of L_s.
    Rinv = (_t(U) / np.sqrt(lam)[..., None]) @ _t(L_z)
    Wm = _t(Rinv) @ Rinv
    return lam, Rinv, Wm, _t(np.linalg.qr(Rinv, mode="r"))


def _boundary_step(lam: np.ndarray, dst: np.ndarray, dzt: np.ndarray | None = None) -> float:
    """Largest alpha keeping diag(lam) + alpha * D PSD for D = dst and dzt,
    both exactly symmetric, in every member of a stack. dzt defaults to the
    predictor's -diag(lam) - dst, -I - Dn once normalized, whose least
    eigenvalue is -1 - max eig(Dn)."""
    s = np.sqrt(lam)
    outer = s[..., :, None] * s[..., None, :]
    ev = np.linalg.eigvalsh(dst / outer)
    dual = -1.0 - ev[..., -1] if dzt is None else np.linalg.eigvalsh(dzt / outer)[..., 0]
    m = float(min(ev[..., 0].min(), dual.min()))
    if m >= -1e-13:
        return np.inf
    return 1.0 / (-m)


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular L by halving (Du Croz &
    Higham, 1992): inv([[A, 0], [B, D]]) = [[A^-1, 0], [-D^-1 B A^-1, D^-1]].
    A leaf of order <= 32 is inv(L.T).T, whose LU swaps no rows: exactly 0
    above the diagonal, which inv(L)'s pivoting is not, and at order 1 the
    reciprocal bitwise. A stack of factors gives the stack of inverses."""
    n = L.shape[-1]
    if n <= 32:
        return 1.0 / L if n == 1 else _t(np.linalg.inv(_t(L)))
    h = n // 2
    X = np.zeros_like(L)
    X[..., :h, :h] = _tril_inv(L[..., :h, :h])
    X[..., h:, h:] = _tril_inv(L[..., h:, h:])
    X[..., h:, :h] = -X[..., h:, h:] @ (L[..., h:, :h] @ X[..., :h, :h])
    return X


def _gram_index(problem: LmiProblem, oidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of every member's Gram matrix lands in the flattened
    Schur complement over the ordinary variables oidx, in _Factorization's
    order, and a buffer of that length that each _Factorization fills in turn."""
    ko = oidx.size
    pos_of = np.full(problem.num_vars, -1, dtype=np.intp)
    pos_of[oidx] = np.arange(ko)
    rows = [pos_of[cb.lv] for cb in problem.compiled()]
    idx = np.concatenate([(r[:, :, None] * ko + r[:, None, :]).ravel() for r in rows])
    return idx, np.empty(idx.size)


class _Factorization:
    """One iteration's Schur complement M_ij = sum_b tr(F_i W_b F_j W_b)
    over the ordinary variables, with every declared slack corner eliminated.

    With W = L L.T, L lower triangular, a block's corner-eliminated term is
    tr(F_i W F_j W) - tr(T F_i T F_j) with T = L[:, :dc] L[:, :dc].T, and
    W - T vanishes outside its trailing block. So the term is the Gram
    matrix H H.T of H_i = L.T F_i[:, dc:] L[dc:, dc:] with the dc border rows
    scaled by sqrt(2), which count in both triangles; without a corner it is
    the plain tr(F_i W F_j W). One bincount adds every member's H H.T at its
    variables (_gram_index): a member touches few of the ordinary variables,
    and one dense product over every member's columns cost more. The order
    of M's sum decides exits: one GEMM for both full-width blocks saved 130 us
    an iteration at ell = 90 but sent 4 of the 36 baseline records to snapshots.
    """

    def __init__(self, problem, Wms, Ls, oidx, index):
        self.problem = problem
        self.Wms = Wms
        self.oidx = oidx
        ko = oidx.size
        gram_idx, buf = index
        o = 0  # where the next block's Gram matrices start in buf
        # (block index, block, E = L[dc:, :dc] L_cc^-1, W_cc^-1) for each corner
        self.corners = []

        for b, (cb, L) in enumerate(zip(problem.compiled(), Ls)):
            dc = cb.dc
            H = _t(L)[:, None] @ cb.F @ L[:, None, dc:, dc:]
            H[:, :, :dc] *= SQRT2
            H = H.reshape(cb.F_flat.shape)
            g, nv = H.shape[:2]
            np.matmul(H, _t(H), out=buf[o : o + g * nv * nv].reshape(g, nv, nv))
            o += g * nv * nv
            if dc:
                Li = _tril_inv(L[:, :dc, :dc])
                self.corners.append((b, cb, L[:, dc:, :dc] @ Li, _t(Li) @ Li))
        M = np.bincount(gram_idx, buf, minlength=ko * ko).reshape(ko, ko)

        scale = float(np.max(np.diag(M))) if ko else 1.0
        # M = C C.T, applied as Ci.T (Ci r) with Ci = C^-1 (module docstring).
        for jitter in (0.0, 1e-12 * scale, 1e-9 * scale):
            try:
                self.chol = np.linalg.cholesky(M + jitter * np.eye(ko) if jitter else M)
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise _FactorError("Schur complement not positive definite after jitter")
        self.chol_inv = _tril_inv(self.chol)

    def solve_kkt(self, E_list, rd, rdc, refine):
        """Solve M dy = A*(E) - rd, with corner back-substitution, and with
        refine one step of iterative refinement. Each corner's part of rd
        and dy is a (g, dc, dc) stack apart (rdc, dYc), as in adjoint_split.

        The refinement residual comes from the operator itself,
        sum_b A_b*(W_b A_b(dy) W_b), not from the assembled M: the residuals
        that decide convergence are measured through the same apply and
        adjoint, so dy is made consistent with them to working precision.
        Only the corrector and the final dual correction refine. Without the
        corrector's refinement every status stayed Optimal, but 271 rather
        than 289 of the first 300 random LMIs passed the convergence test,
        for 5-10 % less time per baseline iteration at ell = 30 to 90.
        CVXOPT's cone solvers also refine once.
        """
        p = self.problem
        g, gc = p.adjoint_split(E_list)
        rhs, r_cs = g - rd, [G - R for G, R in zip(gc, rdc)]
        dy, dYc = self._reduced_solve(rhs, r_cs)
        if not refine:
            return dy, dYc
        W_list = [W @ cb.apply_lin(dy, D) @ W for cb, W, D in zip(p.compiled(), self.Wms, dYc)]
        g, gc = p.adjoint_split(W_list)
        ddy, ddYc = self._reduced_solve(rhs - g, [r - G for r, G in zip(r_cs, gc)])
        return dy + ddy, [D + dD for D, dD in zip(dYc, ddYc)]

    def _reduced_solve(self, rhs, r_cs):
        # Corner rows read W_cc dW W_cc + (W A_o(dy) W)_cc = r_c, A_o the
        # block's ordinary apply. With [I; E] = L[:, :dc] L_cc^-1 the ordinary
        # rows lose the adjoint at [I; E] r_c [I; E].T (its corner unread), and
        # dW = W_cc^-1 r_c W_cc^-1 - [I; E].T A_o(dy) [I; E]
        #    = W_cc^-1 r_c W_cc^-1 - (B E + E.T B.T + E.T T E), [B; T] = A_o(dy)[:, dc:].
        # A block without a corner keeps its empty part of r_cs in dYc. Each
        # step runs on a block's whole stack of members.
        k = self.problem.num_vars
        vals = []
        for b, cb, E, _ in self.corners:
            rEt = r_cs[b] @ _t(E)
            # The border rows meet the adjoint twice, once in each triangle.
            vals.append(cb.pull(np.concatenate((2.0 * rEt, E @ rEt), axis=1)))
        g = gather(self.problem._corner_lv, vals, k)
        dy = np.zeros(k)
        dy[self.oidx] = self.chol_inv.T @ (self.chol_inv @ (rhs - g)[self.oidx])
        dYc = list(r_cs)
        for b, cb, E, Wi in self.corners:
            BT = cb.border(dy)
            BE = BT[:, : cb.dc] @ E
            dYc[b] = sym(Wi @ r_cs[b] @ Wi - (BE + _t(BE) + _t(E) @ BT[:, cb.dc :] @ E))
        return dy, dYc


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


def _directions(compiled, scal, dy, dYc, Rp, C=None):
    """Every block's search direction and the largest step all blocks allow.

    dS = A(dy, dYc) - Rp is a block's slack step; scaled, Rinv dS Rinv.T.
    Each is a (g, d, d) stack, and a block's step is its members' least.
    The scaled dual step is C (by default the predictor's -diag(lam)) minus
    it. A block allows the largest alpha keeping both diag(lam) + alpha *
    step PSD. Returns the per-block dS, both scaled steps and the step.
    """
    out = []
    for b, (cb, (lam, Rinv, _, _), R) in enumerate(zip(compiled, scal, Rp)):
        dS = cb.apply_lin(dy, dYc[b]) - R
        dst = sym(Rinv @ dS @ _t(Rinv))
        dzt = (-_diag(lam) if C is None else C[b]) - dst
        out.append((dS, dst, dzt, _boundary_step(lam, dst, None if C is None else dzt)))
    dS, dst, dzt, steps = zip(*out)
    return dS, dst, dzt, min(steps)


def _dual_correction(fact, compiled, Z, rd, rdc):
    """Z + dZ with dZ_b = -W_b A_b(dy, dYc) W_b and M dy = -rd, so that
    A*(Z + dZ) = c; None when some Z_b + dZ_b fails a Cholesky."""
    dy, dYc = fact.solve_kkt([np.zeros_like(Zb) for Zb in Z], rd, rdc, True)
    Zn = [sym(Zb - W @ cb.apply_lin(dy, D) @ W) for cb, Zb, W, D in zip(compiled, Z, fact.Wms, dYc)]
    try:
        for Zb in Zn:
            np.linalg.cholesky(Zb)
    except np.linalg.LinAlgError:
        return None
    return Zn


def solve(problem: LmiProblem) -> ConicSolution:
    """Minimize c.T y over the intersection of the problem's LMI blocks.

    Statuses are values, never exceptions, and a solve ends in one of four
    ways. Optimal with an empty message means the convergence test passed,
    at an iterate or after its final dual correction: both residuals and
    the relative gap at most _TOL. Infeasible and Unbounded come from
    residual-growth heuristics, MaxIters from the _MAX_ITERS cap. A
    breakdown, a non-finite iterate or a failed factorization (NT scaling
    or Schur complement), ends on the snapshot rule: the snapshot is
    returned as Optimal with message "attainable precision; <reason>" when
    its primal merit is at most _PRIMAL_CAP, else NumericalError with it.
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
    index = _gram_index(problem, oidx)

    # Every block's values are (g, d, d) stacks, and each member is scaled
    # and measured as a block of its own.
    sum_dim = float(sum(cb.g * cb.dim for cb in compiled))
    normF0 = [1.0 + np.linalg.norm(cb.F0, axis=(1, 2)) for cb in compiled]
    cnorm = 1.0 + float(np.linalg.norm(c))

    # Corners stay (g, dc, dc) stacks (dc = 0 without one) and y's corner
    # entries 0 until the exit packs them; svec is an isometry.
    y = np.zeros(k)
    Yc = [np.zeros((cb.g, cb.dc, cb.dc)) for cb in compiled]
    Cc = [smat(c[cb.corner].reshape(cb.g, svec_len(cb.dc)), cb.dc) for cb in compiled]
    c_o = np.where(problem._ordinary, c, 0.0)
    S = [nf[:, None, None] * np.eye(cb.dim) for nf, cb in zip(normF0, compiled)]
    Z = [np.ones((cb.g, 1, 1)) * np.eye(cb.dim) for cb in compiled]

    def dual_side(Z):
        """A*(Z) and c - A*(Z), split as in adjoint_split, |c - A*(Z)| and tr(S Z)."""
        g, Zc = problem.adjoint_split(Z)
        rd, rdc = c_o - g, [Cb - Zb for Cb, Zb in zip(Cc, Zc)]
        dres = float(np.sqrt(rd @ rd + _mdot(rdc, rdc))) / cnorm
        return g, Zc, rd, rdc, dres, _mdot(S, Z)

    snap, snap_pmerit = None, np.inf
    status = SolverStatus.MAX_ITERS
    message = breakdown = ""

    # The first iteration sets it, obj, gap, pres and dres before any exit.
    for it in range(1, _MAX_ITERS + 1):
        Rp = [S[i] - (cb.apply_lin(y, Yc[i]) + cb.F0) for i, cb in enumerate(compiled)]
        g, Zc, rd, rdc, dres, gap = dual_side(Z)
        obj = float(c_o @ y + _mdot(Cc, Yc))
        # Frobenius norms by np.linalg.norm's formula without its wrapper; np.max,
        # unlike max, carries a NaN in any term into the result.
        norms = [np.sqrt(np.add.reduce(R * R, axis=(1, 2))) / nf for R, nf in zip(Rp, normF0)]
        pres = float(np.max(np.concatenate(norms)))
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
        zn = float(np.sum(np.concatenate([np.linalg.norm(Zb, axis=(1, 2)) for Zb in Z])))
        if zn >= 1e10:
            f0z = _mdot([cb.F0 for cb in compiled], Z)
            adj_ratio = float(np.sqrt(g @ g + _mdot(Zc, Zc))) / zn
            if f0z < 0.0 and adj_ratio <= 1e-8:
                status, message = SolverStatus.INFEASIBLE, "dual improving ray detected"
                break
        # The snapshot is the best-primal iterate whose slacks factored, taken
        # before its Schur factorization: in the degenerate tail the dual
        # residual decays while (pres, relgap) keep polishing, so dual quality
        # gates insertion but never selects the snapshot.
        fact = None  # free the last iteration's Ci before the next is built
        try:
            scal = [_nt_scaling(S[i], Z[i]) for i in range(len(compiled))]
            pmerit = max(pres, relgap)
            if dres <= _DUAL_CAP and pmerit < snap_pmerit:
                snap_pmerit = pmerit
                snap = (y.copy(), Yc, obj, gap, pres, dres)
            _, _, Wms, Ls = zip(*scal)
            fact = _Factorization(problem, Wms, Ls, oidx, index)
        except _FactorError as exc:
            breakdown = f"next factorization failed: {exc}"
            break
        if pres <= _TOL and relgap <= _TOL:
            Zn = _dual_correction(fact, compiled, Z, rd, rdc)
            if Zn is not None:
                *_, dres_n, gap_n = dual_side(Zn)
                if max(dres_n, s_obj * gap_n / (1.0 + s_obj * abs(obj))) <= _TOL:
                    status, dres, gap = SolverStatus.OPTIMAL, dres_n, gap_n
                    break

        mu = gap / sum_dim
        WRW = [Wm @ R @ Wm for Wm, R in zip(Wms, Rp)]

        # Predictor: pure Newton step toward the boundary.
        # Its dy only sets sigma and the second-order term: no refinement.
        dy_aff = fact.solve_kkt([-Zb + T for Zb, T in zip(Z, WRW)], rd, rdc, False)
        _, ds_aff, dz_aff, a_step = _directions(compiled, scal, *dy_aff, Rp)
        # One common step length for (y, S) and Z: keeps both residual
        # recursions shrinking at the same rate, which separate step sizes
        # do not guarantee for infeasible starts.
        a_aff = min(1.0, 0.9995 * a_step)

        lams = [_diag(sc[0]) for sc in scal]
        Sa = [L + a_aff * D for L, D in zip(lams, ds_aff)]
        mu_aff = _mdot(Sa, [L + a_aff * D for L, D in zip(lams, dz_aff)]) / sum_dim
        sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

        # Corrector with Mehrotra's second-order term.
        E_cor, C_mats = [], []
        for i in range(len(compiled)):
            lam, Rinv, _, _ = scal[i]
            cross = ds_aff[i] @ dz_aff[i]
            C_raw = sigma * mu * _eye(lam.shape[-1]) - _diag(lam**2) - sym(cross)
            C_mat = 2.0 * C_raw / (lam[..., :, None] + lam[..., None, :])
            C_mats.append(C_mat)
            E_cor.append(_t(Rinv) @ C_mat @ Rinv + WRW[i])
        dy, dYc = fact.solve_kkt(E_cor, rd, rdc, True)
        ds_list, _, dzt_list, a_max = _directions(compiled, scal, dy, dYc, Rp, C_mats)

        gamma = 0.9 + 0.09 * min(1.0, a_aff)
        alpha = min(1.0, gamma * a_max)
        y = y + alpha * dy
        Yc = [Yb + alpha * dYb for Yb, dYb in zip(Yc, dYc)]
        for i, (_, Rinv, _, _) in enumerate(scal):
            S[i] = sym(S[i] + alpha * ds_list[i])
            Z[i] = sym(Z[i] + alpha * (_t(Rinv) @ dzt_list[i] @ Rinv))

    if breakdown and snap_pmerit <= _PRIMAL_CAP:
        status, message = SolverStatus.OPTIMAL, f"attainable precision; {breakdown}"
        y, Yc, obj, gap, pres, dres = snap
    elif breakdown:
        status, message = SolverStatus.NUMERICAL_ERROR, breakdown
    for cb, Yb in zip(compiled, Yc):
        y[cb.corner] = svec(Yb).ravel()
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
