"""Dense linear-algebra kernels used by every other module.

All matrices are plain float64 numpy arrays. Factorizations are delegated to
numpy's LAPACK bindings and the Lyapunov/Riccati equations to scipy.linalg;
the input validation, tolerance checks, clamping rules and the stability and
residual checks on their results are implemented here.

Tolerance conventions
---------------------
``RANK_TOL`` is the single package-wide numerical-rank threshold: a singular
value sigma_i counts toward the rank iff sigma_i > RANK_TOL * sigma_max.
Every routine that ranks or pseudo-inverts accepts an override but defaults
to this constant.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    IndefiniteInput,
    NoConvergence,
    NotPositiveDefinite,
    NumericalError,
    UnstableMatrix,
)

RANK_TOL = 1e-10

__all__ = [
    "RANK_TOL",
    "as_matrix",
    "sym",
    "require_symmetric",
    "cholesky",
    "sym_sqrt",
    "inv_pd",
    "inv_sqrt_pd",
    "pinv",
    "rank",
    "spectral_radius",
    "solve_dlyap",
    "solve_dare",
    "h2norm_sq",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def sym(S: np.ndarray) -> np.ndarray:
    """Symmetric part (S + S.T) / 2."""
    return 0.5 * (S + S.T)


def require_symmetric(S, name: str = "matrix", tol: float = 1e-12) -> np.ndarray:
    """Validate symmetry and return the symmetrized copy.

    The asymmetry max|S - S.T| must not exceed ``tol * (1 + max|S|)``;
    beyond that the input is rejected rather than silently averaged.
    """
    S = as_matrix(S, name)
    if S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {S.shape}")
    scale = 1.0 + (np.abs(S).max() if S.size else 0.0)
    asym = np.abs(S - S.T).max() if S.size else 0.0
    if asym > tol * scale:
        raise AsymmetricInput(f"{name} asymmetry {asym:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return sym(S)


def cholesky(S, name: str = "matrix") -> np.ndarray:
    """Lower-triangular T with T @ T.T == S for symmetric positive definite S.

    Raises NotPositiveDefinite when any pivot T[i, i]**2 falls at or below
    1e-12 times the largest diagonal entry of S.
    """
    S = require_symmetric(S, name)
    if S.shape[0] == 0:
        return S.copy()
    maxdiag = float(np.max(np.diag(S)))
    if maxdiag <= 0.0:
        raise NotPositiveDefinite(f"{name} has non-positive diagonal (max {maxdiag:.3e})")
    try:
        T = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite: {exc}") from None
    pivots = np.diag(T) ** 2
    if np.min(pivots) <= 1e-12 * maxdiag:
        raise NotPositiveDefinite(
            f"{name} pivot {np.min(pivots):.3e} at or below 1e-12 * {maxdiag:.3e}"
        )
    return T


def sym_sqrt(S, name: str = "matrix") -> np.ndarray:
    """Symmetric square root of a symmetric positive semidefinite matrix.

    Eigenvalues below ``-1e-10 * max|eig|`` reject the input; anything
    negative above that floor is clamped to zero before taking roots.
    """
    S = require_symmetric(S, name)
    if S.shape[0] == 0:
        return S.copy()
    w, V = np.linalg.eigh(S)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale > 0.0 and float(np.min(w)) < -1e-10 * scale:
        raise IndefiniteInput(f"{name} eigenvalue {np.min(w):.3e} below -1e-10 * {scale:.3e}")
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    return sym(root)


def _pd_eigh(S, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a matrix required positive definite.

    Definiteness is judged against RANK_TOL relative to the largest
    eigenvalue magnitude; failure is raised, never patched.
    """
    S = require_symmetric(S, name)
    if S.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be non-empty")
    w, V = np.linalg.eigh(S)
    scale = float(np.max(np.abs(w)))
    if scale <= 0.0 or float(np.min(w)) <= RANK_TOL * scale:
        raise NotPositiveDefinite(
            f"{name} eigenvalue {float(np.min(w)):.3e} at or below {RANK_TOL:g} * {scale:.3e}"
        )
    return w, V


def inv_pd(S, name: str = "matrix") -> np.ndarray:
    """Inverse of a positive definite matrix via eigendecomposition."""
    w, V = _pd_eigh(S, name)
    return sym((V / w) @ V.T)


def inv_sqrt_pd(S, name: str = "matrix") -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix."""
    w, V = _pd_eigh(S, name)
    return sym((V / np.sqrt(w)) @ V.T)


def pinv(M, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package rank cutoff."""
    M = as_matrix(M)
    return np.linalg.pinv(M, rcond=rank_tol)


def rank(M, rank_tol: float = RANK_TOL) -> int:
    """Numerical rank: count of singular values above rank_tol * sigma_max."""
    M = as_matrix(M)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def spectral_radius(A) -> float:
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if A.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def solve_dlyap(A_cl) -> np.ndarray:
    """Solve P = A_cl P A_cl.T + I for the closed-loop Gramian P.

    The spectral radius must sit below 1 - 1e-9. The equation goes to
    scipy.linalg.solve_discrete_lyapunov; the residual is verified to 1e-9
    before the symmetrized P is returned.
    """
    A = as_matrix(A_cl, "A_cl")
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatch(f"A_cl must be square, got {A.shape}")
    rho = spectral_radius(A)
    if rho >= 1.0 - 1e-9:
        raise UnstableMatrix(f"spectral radius {rho:.12f} not below 1 - 1e-9")
    # "direct" at every size: the bilinear method scipy picks from n = 10 on
    # loses about three digits, enough to fail the residual check near rho = 1.
    P = sym(scipy.linalg.solve_discrete_lyapunov(A, np.eye(n), method="direct"))
    resid = float(np.linalg.norm(A @ P @ A.T - P + np.eye(n), "fro"))
    if resid > 1e-9:
        raise NumericalError(f"Lyapunov residual {resid:.3e} exceeds 1e-9")
    return P


def solve_dare(A, B, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """Discrete-time LQR through scipy.linalg.solve_discrete_are.

    Returns (K, S): the optimal state feedback u = K x and the cost matrix S
    solving S = A.T S A - A.T S B (R + B.T S B)^-1 B.T S A + Q. A pair that
    is not stabilizable raises NoConvergence, whether scipy finds no finite
    solution or returns a gain that leaves rho(A + B K) >= 1.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
    m = B.shape[1]
    Q = require_symmetric(Q, "Q")
    R = require_symmetric(R, "R")
    if Q.shape[0] != n or R.shape[0] != m:
        raise DimensionMismatch("Q/R dimensions do not match A/B")

    try:
        S = scipy.linalg.solve_discrete_are(A, B, Q, R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NoConvergence(f"no stabilizing Riccati solution: {exc}") from None
    BtS = B.T @ S
    K = -np.linalg.solve(R + BtS @ B, BtS @ A)
    rho = spectral_radius(A + B @ K)
    if rho >= 1.0:
        raise NoConvergence(f"Riccati gain does not stabilize (rho = {rho:.6f})")
    return K, S


def h2norm_sq(A_cl, K, Q, R) -> float:
    """Squared closed-loop H2 cost tr(Q P) + tr(K.T R K P) with P the Gramian."""
    A_cl = as_matrix(A_cl, "A_cl")
    K = as_matrix(K, "K")
    Q = require_symmetric(Q, "Q")
    R = require_symmetric(R, "R")
    n = A_cl.shape[0]
    if K.shape[1] != n or Q.shape[0] != n or R.shape[0] != K.shape[0]:
        raise DimensionMismatch("inconsistent shapes for closed-loop cost")
    P = solve_dlyap(A_cl)
    return float(np.trace(Q @ P) + np.trace(K.T @ R @ K @ P))
