"""Independent answers for every benchmark operation, from numpy and scipy only.

Nothing here imports ddlqr. The least-squares fit is recomputed from the raw
record with `np.linalg.lstsq`, and the optimal regularised gain comes from the
Riccati form of the regulariser: the reduced programs are LQR problems on the
least-squares model with shifted weights (ROADMAP direction 2). Under the gram
parameterisation the free closed-loop deviation is a second input, so the
Riccati equation runs on (A_LS, [B_LS I]) with

    input weight  blkdiag(R + s*l2*Su^-1, s*l1*Sx^-1)
    state weight  Q + s*l3*Sx0^-1 + s*l2*K_LS^T Su^-1 K_LS
    cross term    [-s*l2*K_LS^T Su^-1, 0]

with s = 1/ell. The covariance form has no deviation input and s = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


@dataclass(frozen=True)
class Fit:
    """Least-squares model and sample covariances of one raw record."""

    a: np.ndarray
    b: np.ndarray
    k_ls: np.ndarray
    cov_x0: np.ndarray
    cov_rx: np.ndarray
    cov_ru: np.ndarray
    ell: int


@dataclass(frozen=True)
class Answer:
    """Reference gain, closed loop and optimal objective of one program."""

    K: np.ndarray
    A_cl: np.ndarray
    objective: float


def ls_fit(x0: np.ndarray, u0: np.ndarray, x1: np.ndarray) -> Fit:
    n, ell = x0.shape
    d0 = np.vstack([x0, u0])
    ab = np.linalg.lstsq(d0.T, x1.T, rcond=None)[0].T
    k_ls = np.linalg.lstsq(x0.T, u0.T, rcond=None)[0].T
    rx = x1 - ab @ d0
    ru = u0 - k_ls @ x0
    return Fit(
        a=ab[:, :n],
        b=ab[:, n:],
        k_ls=k_ls,
        cov_x0=x0 @ x0.T / ell,
        cov_rx=rx @ rx.T / ell,
        cov_ru=ru @ ru.T / ell,
        ell=ell,
    )


def riccati(fit: Fit, Q, R, l1: float, l2: float, l3: float, gram: bool) -> Answer:
    """Optimal gain of the regularised program through its Riccati form."""
    if gram and l1 <= 0.0:
        raise ValueError("the gram Riccati form needs l1 > 0")
    if not gram and l1 != 0.0:
        raise ValueError("the covariance form has no l1 term")
    n, m = fit.b.shape
    s = 1.0 / fit.ell if gram else 1.0
    iu = np.linalg.inv(fit.cov_ru)
    q = Q + s * l3 * np.linalg.inv(fit.cov_x0) + s * l2 * fit.k_ls.T @ iu @ fit.k_ls
    r = R + s * l2 * iu
    cross = -s * l2 * fit.k_ls.T @ iu
    b = fit.b
    if gram:
        b = np.hstack([fit.b, np.eye(n)])
        r = sla.block_diag(r, s * l1 * np.linalg.inv(fit.cov_rx))
        cross = np.hstack([cross, np.zeros((n, n))])
    q = 0.5 * (q + q.T)
    r = 0.5 * (r + r.T)
    X = sla.solve_discrete_are(fit.a, b, q, r, s=cross)
    G = -np.linalg.solve(r + b.T @ X @ b, b.T @ X @ fit.a + cross.T)
    a_cl = fit.a + b @ G
    # tr(X) is the optimal cost too, but at large weights it is a small
    # difference of large numbers; summing the non-negative terms at the
    # optimal gain keeps full relative precision.
    P = sla.solve_discrete_lyapunov(a_cl, np.eye(n))
    K = G[:m]
    dk = K - fit.k_ls
    cost = np.trace(Q @ P) + np.trace(R @ K @ P @ K.T)
    cost += s * l2 * np.trace(iu @ dk @ P @ dk.T)
    cost += s * l3 * np.trace(np.linalg.solve(fit.cov_x0, P))
    if gram:
        dev = G[m:]
        cost += s * l1 * np.trace(np.linalg.solve(fit.cov_rx, dev @ P @ dev.T))
    return Answer(K=K, A_cl=a_cl, objective=float(cost))


def truth_cost(A, B, Q, R, K) -> tuple[float, float | None]:
    """Spectral radius and H2 cost of u = Kx on the true plant; the cost is
    None when the true closed loop is not stable."""
    a_cl = A + B @ K
    rho = spectral_radius(a_cl)
    if rho >= 1.0:
        return rho, None
    P = sla.solve_discrete_lyapunov(a_cl, np.eye(A.shape[0]))
    return rho, float(np.trace(Q @ P) + np.trace(K.T @ R @ K @ P))


def rel(a, b) -> float:
    """Distance of a from b relative to the size of b (floored at 1)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(1.0, float(np.linalg.norm(b))))


def spectral_radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))
