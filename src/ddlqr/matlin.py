"""Dense linear-algebra kernels used by every other module.

All matrices are plain float64 numpy arrays. Factorizations are delegated to
numpy's LAPACK bindings. The Riccati equation is solved by structure-preserving
doubling and the Lyapunov equation as one Kronecker system, behind the input
validation, tolerance checks, clamping rules and stability and residual checks
implemented here.

Tolerance conventions
---------------------
``RANK_TOL`` is the single package-wide numerical-rank threshold: a singular
value sigma_i counts toward the rank iff sigma_i > RANK_TOL * sigma_max.
Every routine that ranks or pseudo-inverts uses it.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    IndefiniteInput,
    NoConvergence,
    NumericalError,
    UnstableMatrix,
)

RANK_TOL = 1e-10

__all__ = [
    "RANK_TOL",
    "as_matrix",
    "sym",
    "require_symmetric",
    "sym_sqrt",
    "pinv",
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


def require_symmetric(S, name: str = "matrix") -> np.ndarray:
    """Validate symmetry and return the symmetrized copy.

    The asymmetry max|S - S.T| must not exceed ``1e-12 * (1 + max|S|)``;
    beyond that the input is rejected rather than silently averaged.
    """
    S = as_matrix(S, name)
    if S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {S.shape}")
    scale = 1.0 + (np.abs(S).max() if S.size else 0.0)
    asym = np.abs(S - S.T).max() if S.size else 0.0
    if asym > 1e-12 * scale:
        raise AsymmetricInput(f"{name} asymmetry {asym:.3e} exceeds 1e-12 * {scale:.3e}")
    return sym(S)


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


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package rank cutoff."""
    M = as_matrix(M)
    return np.linalg.pinv(M, rcond=RANK_TOL)


def spectral_radius(A) -> float:
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if A.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def solve_dlyap(A_cl) -> np.ndarray:
    """Solve P = A_cl P A_cl.T + I for the closed-loop Gramian P.

    The spectral radius must sit below 1 - 1e-9. P solves the n^2 x n^2
    Kronecker system (I - A_cl kron A_cl) vec P = vec I; the residual is
    verified to 1e-9 before the symmetrized P is returned.
    """
    A = as_matrix(A_cl, "A_cl")
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatch(f"A_cl must be square, got {A.shape}")
    rho = spectral_radius(A)
    if rho >= 1.0 - 1e-9:
        raise UnstableMatrix(f"spectral radius {rho:.12f} not below 1 - 1e-9")
    # One Kronecker system at every size: a bilinear transform loses about
    # three digits, enough to fail the residual check near rho = 1.
    P = _kron_lyap(A, np.eye(n))
    resid = float(np.linalg.norm(A @ P @ A.T - P + np.eye(n), "fro"))
    if resid > 1e-9:
        raise NumericalError(f"Lyapunov residual {resid:.3e} exceeds 1e-9")
    return P


def _kron_lyap(A, W) -> np.ndarray:
    """Symmetrized solution of P = A P A.T + W through its Kronecker system."""
    n = A.shape[0]
    return sym(np.linalg.solve(np.eye(n * n) - np.kron(A, A), W.ravel()).reshape(n, n))


def solve_dare(A, B, Q, R, cross=None) -> tuple[np.ndarray, np.ndarray]:
    """Discrete-time LQR by structure-preserving doubling.

    Minimizes the sum over time of x.T Q x + u.T R u + 2 x.T cross u, where
    the n x m cross weight defaults to zero. Returns (K, S): the optimal state
    feedback u = K x, K = -(R + B.T S B)^-1 (B.T S A + cross.T), and the cost
    matrix S solving
    S = A.T S A - (A.T S B + cross) (R + B.T S B)^-1 (B.T S A + cross.T) + Q.
    A pair that is not stabilizable raises NoConvergence, whether the doubling
    finds no finite limit or its gain leaves rho(A + B K) >= 1.
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
    cross = np.zeros((n, m)) if cross is None else as_matrix(cross, "cross")
    if cross.shape != (n, m):
        raise DimensionMismatch(f"cross must be {n} x {m}, got {cross.shape}")

    def gain(S):
        BtS = B.T @ S
        return -np.linalg.solve(R + BtS @ B, BtS @ A + cross.T)

    try:
        with np.errstate(all="ignore"):
            # Fold the cross weight into the dynamics: u = v - R^-1 cross.T x.
            RiB, RiC = np.hsplit(np.linalg.solve(R, np.hstack([B.T, cross.T])), [n])
            A0, H0 = A - B @ RiC, sym(Q - cross @ RiC)
            S = _doubling(A0, sym(B @ RiB), H0)  # the stabilizing solution
            # One Newton step, the exact cost of the doubling's gain, restores
            # the digits that solves with I + GH lose when |G| |H| is large.
            V = gain(S) + RiC
            S = _kron_lyap((A0 + B @ V).T, H0 + V.T @ R @ V)
            K = gain(S)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"no stabilizing Riccati solution: {exc}") from None
    rho = spectral_radius(A + B @ K) if np.all(np.isfinite(K)) else np.inf
    if rho >= 1.0:
        raise NoConvergence(f"Riccati gain does not stabilize (rho = {rho:.6f})")
    return K, S


def _doubling(A, G, H) -> np.ndarray:
    """Stabilizing solution X of X = A.T X (I + G X)^-1 A + H by
    structure-preserving doubling (Chu, Fan, Lin & Wang, 2004). After k steps
    H is the 2^k-th Riccati iterate from zero, so H converges quadratically
    when the closed loop is stable. A non-finite iterate or 64 steps without
    H settling to 1e-15 relative raise NoConvergence; a singular I + GH raises
    LinAlgError."""
    n = A.shape[0]
    eye = np.eye(n)
    for _ in range(64):
        W = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
        H_next = sym(H + A.T @ H @ W[:, :n])
        A, G = A @ W[:, :n], sym(G + A @ W[:, n:] @ A.T)
        size = np.linalg.norm(H_next)
        if not np.isfinite(size):
            raise NoConvergence("no stabilizing Riccati solution: doubling diverged")
        if np.linalg.norm(H_next - H) <= 1e-15 * size:
            return H_next
        H = H_next
    raise NoConvergence("no stabilizing Riccati solution: doubling did not settle in 64 steps")


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
