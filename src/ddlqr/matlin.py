"""Dense linear-algebra kernels used by every other module.

All matrices are plain float64 numpy arrays. Factorizations are delegated to
numpy's LAPACK bindings. The Riccati equation is solved by structure-preserving
doubling and the Lyapunov equation as one Kronecker system. Each public
function validates its input, then calls one private core on the checked
arrays (`_rho`, `_dlyap`, `_dare`, `_h2`), which the Riccati path in
`synthesis` also calls directly. The cores keep every numerical check but
one: `_dare` leaves the stability test to its caller, which computes the
spectral radius once and reuses it.

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
_RHO_MARGIN = 1e-9  # a stable loop has rho < 1 - _RHO_MARGIN: _dlyap finds its Gramian

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


def _square(a, name: str) -> np.ndarray:
    """`as_matrix` for a square matrix."""
    A = as_matrix(a, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {A.shape}")
    return A


def _shaped(a, shape: tuple[int, int], name: str) -> np.ndarray:
    """`as_matrix` for a matrix of the given shape."""
    A = as_matrix(a, name)
    if A.shape != shape:
        raise DimensionMismatch(f"{name} must be {shape[0]} x {shape[1]}, got {A.shape}")
    return A


def sym(S: np.ndarray) -> np.ndarray:
    """Symmetric part (S + S.T) / 2, of each matrix in a stack."""
    return 0.5 * (S + S.swapaxes(-1, -2))


def _asymmetric(D: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The symmetry rule per matrix of a stack: max|D - D.T| > 1e-12 (1 + max|S|)."""
    asym = np.abs(D - D.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return asym > 1e-12 * (1.0 + np.abs(S).max(axis=(-2, -1), initial=0.0))


def require_symmetric(S, name: str = "matrix") -> np.ndarray:
    """Validate symmetry and return the symmetrized copy.

    An input that `_asymmetric` flags, max|S - S.T| > 1e-12 (1 + max|S|),
    is rejected rather than silently averaged.
    """
    S = _square(S, name)
    if _asymmetric(S, S):
        asym, scale = np.abs(S - S.T).max(), 1.0 + np.abs(S).max()
        raise AsymmetricInput(f"{name} asymmetry {asym:.3e} exceeds 1e-12 * {scale:.3e}")
    return sym(S)


def sym_sqrt(S, name: str = "matrix") -> np.ndarray:
    """Symmetric square root of a symmetric positive semidefinite matrix.

    Eigenvalues below ``-1e-10 * max|eig|`` reject the input; anything
    negative above that floor is clamped to zero before taking roots.
    """
    return _psd_eigh(S, name)[1]


def _psd_eigh(S, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and symmetric square root of a symmetric positive
    semidefinite matrix, under `sym_sqrt`'s rule for negative eigenvalues."""
    w, V = np.linalg.eigh(require_symmetric(S, name))
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale > 0.0 and float(np.min(w)) < -1e-10 * scale:
        raise IndefiniteInput(f"{name} eigenvalue {np.min(w):.3e} below -1e-10 * {scale:.3e}")
    return w, sym((V * np.sqrt(np.clip(w, 0.0, None))) @ V.T)


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package rank cutoff."""
    M = as_matrix(M)
    return np.linalg.pinv(M, rcond=RANK_TOL)


def spectral_radius(A) -> float:
    return _rho(_square(A, "A"))


def _rho(A) -> float:
    """Spectral radius of a checked square matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(A)))) if A.size else 0.0


def solve_dlyap(A_cl) -> np.ndarray:
    """Solve P = A_cl P A_cl.T + I for the closed-loop Gramian P.

    The spectral radius must sit below 1 - _RHO_MARGIN. P solves the
    n^2 x n^2 Kronecker system (I - A_cl kron A_cl) vec P = vec I; the
    residual is verified to 1e-9 before the symmetrized P is returned.
    """
    A = _square(A_cl, "A_cl")
    return _dlyap(A, _rho(A))


def _dlyap(A, rho: float) -> np.ndarray:
    """`solve_dlyap` on a checked square A whose spectral radius is rho."""
    if rho >= 1.0 - _RHO_MARGIN:
        raise UnstableMatrix(f"spectral radius {rho:.12f} not below 1 - {_RHO_MARGIN:g}")
    n = A.shape[0]
    # One Kronecker system at every size: a bilinear transform loses about
    # three digits, enough to fail the residual check near rho = 1.
    P = _kron_lyap(A, np.eye(n))
    resid = float(np.linalg.norm(A @ P @ A.T - P + np.eye(n), "fro"))
    if resid > 1e-9:
        raise NumericalError(f"Lyapunov residual {resid:.3e} exceeds 1e-9")
    return P


def _kron(A) -> np.ndarray:
    """np.kron(A, A) bit for bit: each entry is the one product a_ij a_kl."""
    n = A.shape[0]
    return (A[:, None, :, None] * A[None, :, None, :]).reshape(n * n, n * n)


def _kron_lyap(A, W) -> np.ndarray:
    """Symmetrized solution of P = A P A.T + W through its Kronecker system."""
    n = A.shape[0]
    return sym(np.linalg.solve(np.eye(n * n) - _kron(A), W.ravel()).reshape(n, n))


def solve_dare(A, B, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """Discrete-time LQR by structure-preserving doubling.

    Minimizes the sum over time of x.T Q x + u.T R u. Returns (K, S): the
    optimal state feedback u = K x, K = -(R + B.T S B)^-1 B.T S A, and the
    cost matrix S solving S = A.T S A - A.T S B (R + B.T S B)^-1 B.T S A + Q.
    A pair that is not stabilizable raises NoConvergence, whether the doubling
    finds no finite limit or its gain leaves rho(A + B K) >= 1 - _RHO_MARGIN.
    """
    A = _square(A, "A")
    B = as_matrix(B, "B")
    Q = require_symmetric(Q, "Q")
    R = require_symmetric(R, "R")
    if B.shape[0] != A.shape[0] or Q.shape != A.shape or R.shape[0] != B.shape[1]:
        raise DimensionMismatch(f"B/Q/R shapes do not match A {A.shape}")
    K, S = _dare(A, B, Q, R)
    rho = _rho(A + B @ K)
    if rho >= 1.0 - _RHO_MARGIN:
        raise NoConvergence(f"Riccati gain does not stabilize (rho = {rho:.12f})")
    return K, S


def _dare(A, B, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """`solve_dare` on checked arrays; the caller tests rho(A + B K)."""

    def gain(S):
        BtS = B.T @ S
        return -np.linalg.solve(R + BtS @ B, BtS @ A)

    try:
        with np.errstate(all="ignore"):
            S = _doubling(A, sym(B @ np.linalg.solve(R, B.T)), Q)  # the stabilizing solution
            # One Newton step, the exact cost of the doubling's gain, restores
            # the digits that solves with I + GH lose when |G| |H| is large.
            K = gain(S)
            S = _kron_lyap((A + B @ K).T, Q + K.T @ R @ K)
            K = gain(S)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"no stabilizing Riccati solution: {exc}") from None
    if not np.all(np.isfinite(K)):
        raise NoConvergence("no stabilizing Riccati solution: the gain is not finite")
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
    A_cl = _square(A_cl, "A_cl")
    K = as_matrix(K, "K")
    Q = require_symmetric(Q, "Q")
    R = require_symmetric(R, "R")
    if K.shape[1] != A_cl.shape[0] or Q.shape != A_cl.shape or R.shape[0] != K.shape[0]:
        raise DimensionMismatch("inconsistent shapes for closed-loop cost")
    return _h2(A_cl, _rho(A_cl), K, Q, R)


def _h2(A_cl, rho: float, K, Q, R) -> float:
    """`h2norm_sq` on checked arrays, with rho the spectral radius of A_cl."""
    P = _dlyap(A_cl, rho)
    return float(np.trace(Q @ P) + np.trace(K.T @ R @ K @ P))
