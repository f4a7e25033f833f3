"""Regularizer evaluation and its closed-form parametric effects.

Two views of the same quantity live here. The closed forms express what a
quadratic regularizer does to a candidate gain as weighted deviations from
the least-squares estimates (`param_effect_closed`). The oracle recomputes
the same number from first principles as a constrained least-squares
problem over the auxiliary data-combination variable (`param_effect_oracle`),
so each side certifies the other without sharing algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import Dataset, DataStats, compute_stats, kernel_projector, row_space_basis
from .errors import DimensionMismatch, InfeasibleConstraint, NotPositiveDefinite
from .matlin import RANK_TOL, _psd_eigh, _shaped, as_matrix, pinv, require_symmetric, sym_sqrt

__all__ = [
    "EffectBreakdown",
    "OracleCertificate",
    "RegWeights",
    "eval_reg_covar",
    "eval_reg_gram",
    "param_effect_closed",
    "param_effect_oracle",
]

_PARAMETERIZATIONS = ("gram", "covariance")
_ORACLE_KINDS = ("full_gram", "projected_gram", "covariance")

# A certificate whose scaled constraint residual exceeds this is not a
# certificate at all: the requested (gain, closed loop) pair is unreachable
# from the data.
_FEAS_TOL = 1e-6


def _weight(name: str, value) -> float:
    """A regularizer weight as a float: finite and non-negative."""
    val = float(value)
    if not np.isfinite(val) or val < 0.0:
        raise ValueError(f"{name} must be finite and non-negative, got {val!r}")
    return val


@dataclass(frozen=True)
class RegWeights:
    """Weights and bookkeeping for one regularizer configuration."""

    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda3: float = 0.0
    parameterization: str = "gram"

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            object.__setattr__(self, name, _weight(name, getattr(self, name)))
        if self.parameterization not in _PARAMETERIZATIONS:
            raise ValueError(
                f"parameterization must be one of {_PARAMETERIZATIONS}, "
                f"got {self.parameterization!r}"
            )
        if self.parameterization == "covariance" and self.lambda1 > 0.0:
            raise ValueError(
                "the covariance parameterization has no closed-loop-deviation "
                "term; lambda1 must be 0"
            )

    @property
    def ell_scaling(self) -> bool:
        """Whether composed totals carry the 1/ell factor: gram yes, covariance no."""
        return self.parameterization == "gram"

    @property
    def case_label(self) -> str:
        """Indices of the active weights, e.g. "{1,3}"."""
        active = [str(i + 1) for i, v in enumerate((self.lambda1, self.lambda2, self.lambda3)) if v > 0.0]
        return "{" + ",".join(active) + "}"


@dataclass(frozen=True)
class EffectBreakdown:
    """Unit terms of the parametric effect and their weighted total.

    h1 measures closed-loop deviation from the least-squares closed loop,
    h2 gain deviation from the least-squares gain, h3 the exploration
    penalty; each is a squared weighted Frobenius norm and carries no
    lambda or 1/ell factor of its own.
    """

    h1: float
    h2: float
    h3: float
    total: float


@dataclass(frozen=True)
class OracleCertificate:
    """Certified minimum of the constrained regularizer.

    g_opt is the ell x n minimizer of the reweighted variable for the gram
    kinds; the covariance kind involves no optimization, so g_opt stores the
    evaluated (n+m) x n auxiliary matrix instead.
    """

    g_opt: np.ndarray = field(repr=False)
    objective: float
    constraint_residual: float


def eval_reg_gram(G, P, lam: float, projected: bool, d: Dataset) -> float:
    """Quadratic regularizer lam * |Pi G P^(1/2)|_F^2 on the raw variable.

    Pi is the orthogonal projector onto the kernel of the stacked
    state-input data of d when projected, else the identity. It is applied
    as M - Q0 (Q0^T M) with the row-space basis Q0, never formed.
    """
    G = as_matrix(G, "G")
    if G.shape[0] != d.ell:
        raise DimensionMismatch(f"G must have {d.ell} rows, got {G.shape[0]}")
    P = _shaped(P, (G.shape[1],) * 2, "P")
    half = sym_sqrt(P, "P")
    M = G @ half
    if projected:
        q0 = row_space_basis(d)
        M = M - q0 @ (q0.T @ M)
    return _weight("lambda", lam) * float(np.sum(M * M))


def eval_reg_covar(K, P, lam: float, stats: DataStats) -> float:
    """Covariance-parameterized regularizer evaluated directly.

    Returns lam * tr(cov_d0^{-1} [I; K] P [I; K]^T). The sample covariance
    of the stacked state-input data must be invertible.
    """
    K = _shaped(K, (stats.m, stats.n), "K")
    P = _shaped(P, (stats.n, stats.n), "P")
    require_symmetric(P, "P")
    ik = np.vstack([np.eye(stats.n), K])
    return _weight("lambda", lam) * float(np.trace(stats.cov_d0_inv @ ik @ P @ ik.T))


def param_effect_closed(
    K, A_cl, P, stats: DataStats, w: RegWeights
) -> EffectBreakdown:
    """Closed-form parametric effect of the regularizer at (K, A_cl).

    A term whose covariance is singular is reported as 0.0 when its weight
    is zero (it contributes nothing); with a positive weight the singularity
    is an error naming the offending covariance.
    """
    K = _shaped(K, (stats.m, stats.n), "K")
    A_cl = _shaped(A_cl, (stats.n, stats.n), "A_cl")
    P = _shaped(P, (stats.n, stats.n), "P")
    # One eigendecomposition gives P's square root and its definiteness.
    p_eigs, root = _psd_eigh(P, "P")
    if float(np.min(p_eigs)) <= RANK_TOL * float(np.max(np.abs(p_eigs))):
        raise NotPositiveDefinite("P must be positive definite for the parametric effect")
    return _effect(K, A_cl, root, stats, w)


def _effect(K, A_cl, F_P, stats: DataStats, w: RegWeights) -> EffectBreakdown:
    """The parametric effect at (K, A_cl) for any factor F_P F_P.T = P, on
    checked inputs: h_i = |Sigma_i^-1/2 dev_i F_P|_F^2, a squared norm, so
    each term keeps full relative precision at any weight."""

    def term(dev: np.ndarray, factor: str, weight: float) -> float:
        try:
            root = getattr(stats, factor)
        except NotPositiveDefinite:
            if weight > 0.0:
                raise
            return 0.0
        M = root @ dev @ F_P
        return float(np.sum(M * M))

    h1 = term(A_cl - (stats.a_ls + stats.b_ls @ K), "cov_resid_x_inv_sqrt", w.lambda1)
    h2 = term(K - stats.k_ls, "cov_resid_u_inv_sqrt", w.lambda2)
    h3 = term(np.eye(stats.n), "cov_x0_inv_sqrt", w.lambda3)
    total = w.lambda1 * h1 + w.lambda2 * h2 + w.lambda3 * h3
    if w.ell_scaling:
        total /= float(stats.ell)
    return EffectBreakdown(h1=h1, h2=h2, h3=h3, total=float(total))


def param_effect_oracle(
    K, A_cl, P, d: Dataset, lam: float, kind: str
) -> OracleCertificate:
    """First-principles minimum of the regularizer over reachable variables.

    The gram kinds minimize the (optionally projected) squared norm of the
    reweighted variable subject to the stacked data constraint; full_gram
    has the minimum-norm solution in closed form, projected_gram goes
    through the KKT system of the equality-constrained QP, whose singular
    block is resolved by minimum-norm least squares. The covariance kind
    involves no optimization and ignores A_cl.
    """
    if kind not in _ORACLE_KINDS:
        raise ValueError(f"kind must be one of {_ORACLE_KINDS}, got {kind!r}")
    stats = compute_stats(d)
    K = _shaped(K, (stats.m, stats.n), "K")
    A_cl = _shaped(A_cl, (stats.n, stats.n), "A_cl")
    P = _shaped(P, (stats.n, stats.n), "P")
    half = sym_sqrt(P, "P")
    lam = _weight("lambda", lam)

    if kind == "covariance":
        objective = eval_reg_covar(K, P, lam, stats)
        ik = np.vstack([np.eye(stats.n), K])
        v_aux = stats.cov_d0_inv @ ik
        resid = float(
            np.linalg.norm(stats.cov_d0 @ v_aux - ik) / (1.0 + np.linalg.norm(ik))
        )
        return OracleCertificate(g_opt=v_aux, objective=objective, constraint_residual=resid)

    D = d.data_full()
    rhs = np.vstack([half, K @ half, A_cl @ half])
    rhs_scale = 1.0 + float(np.linalg.norm(rhs))

    if kind == "full_gram":
        g_opt = pinv(D) @ rhs
        objective = lam * float(np.sum(g_opt * g_opt))
    else:
        pi = kernel_projector(d)
        nl = stats.ell
        nc = D.shape[0]
        kkt = np.zeros((nl + nc, nl + nc))
        kkt[:nl, :nl] = pi
        kkt[:nl, nl:] = D.T
        kkt[nl:, :nl] = D
        kkt_rhs = np.vstack([np.zeros((nl, rhs.shape[1])), rhs])
        sol = np.linalg.lstsq(kkt, kkt_rhs, rcond=None)[0]
        g_opt = sol[:nl]
        M = pi @ g_opt
        objective = lam * float(np.sum(M * M))

    resid = float(np.linalg.norm(D @ g_opt - rhs)) / rhs_scale
    if resid > _FEAS_TOL:
        raise InfeasibleConstraint(
            f"no data-consistent variable reaches the requested gain and closed "
            f"loop: scaled residual {resid:.3e} exceeds {_FEAS_TOL:g}"
        )
    return OracleCertificate(g_opt=g_opt, objective=float(objective), constraint_residual=resid)
