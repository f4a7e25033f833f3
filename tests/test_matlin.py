"""Kernel-level tests: factorizations, Lyapunov/Riccati solves, closed-loop cost."""

import numpy as np
import pytest
import scipy.linalg

from ddlqr import matlin
from ddlqr.errors import (
    AsymmetricInput,
    DimensionMismatch,
    IndefiniteInput,
    NoConvergence,
    NotPositiveDefinite,
    UnstableMatrix,
)


def random_spd(rng, n, spread=3.0):
    """Random SPD matrix with log-spaced eigenvalues."""
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = np.exp(rng.uniform(-spread / 2, spread / 2, n))
    return (V * w) @ V.T


# -- sym_sqrt -----------------------------------------------------------------


def test_sym_sqrt_diagonal():
    R = matlin.sym_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(R, np.diag([2.0, 3.0]))


def test_sym_sqrt_projector_fixed_point():
    # An orthogonal projector is its own square root.
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 2))
    Pi = A @ np.linalg.pinv(A)
    # sqrt amplifies round-off in the zero eigenvalues, hence the loose bound.
    assert np.linalg.norm(matlin.sym_sqrt(Pi) - Pi, "fro") <= 1e-7


def test_sym_sqrt_squares_back_seeded():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        S = random_spd(rng, n)
        R = matlin.sym_sqrt(S)
        assert np.allclose(R, R.T)
        assert np.linalg.norm(R @ R - S, "fro") <= 1e-10 * (1 + np.linalg.norm(S, "fro"))


def test_sym_sqrt_clamps_round_off_negatives():
    # Eigenvalue -1e-12 (relative) sits above the -1e-10 floor: clamp, not raise.
    S = np.diag([1.0, -1e-12])
    R = matlin.sym_sqrt(S)
    assert R[1, 1] == 0.0


def test_sym_sqrt_rejects_indefinite():
    with pytest.raises(IndefiniteInput):
        matlin.sym_sqrt(np.diag([1.0, -1.0]))


# -- pinv ---------------------------------------------------------------------


def test_pinv_zero_matrix():
    assert matlin.pinv(np.zeros((2, 3))).shape == (3, 2)
    assert np.all(matlin.pinv(np.zeros((2, 3))) == 0.0)


def test_pinv_penrose_identities_seeded():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        M = rng.standard_normal((rows, cols))
        if rng.uniform() < 0.5 and min(rows, cols) > 1:
            M[:, -1] = M[:, 0]  # force rank deficiency
        Mp = matlin.pinv(M)
        scale = 1 + np.linalg.norm(M, "fro")
        assert np.linalg.norm(M @ Mp @ M - M, "fro") <= 1e-10 * scale
        assert np.linalg.norm(Mp @ M @ Mp - Mp, "fro") <= 1e-10 * scale
        assert np.linalg.norm((M @ Mp).T - M @ Mp, "fro") <= 1e-10 * scale
        assert np.linalg.norm((Mp @ M).T - Mp @ M, "fro") <= 1e-10 * scale


# -- solve_dlyap --------------------------------------------------------------


def test_dlyap_zero_loop_gives_identity():
    assert np.allclose(matlin.solve_dlyap(np.zeros((2, 2))), np.eye(2))


def test_dlyap_half_identity():
    P = matlin.solve_dlyap(0.5 * np.eye(2))
    assert np.allclose(P, (4.0 / 3.0) * np.eye(2))


def test_dlyap_matches_series_sum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        A *= 0.8 / max(matlin.spectral_radius(A), 1e-3)
        P = matlin.solve_dlyap(A)
        # Independent route: P = sum_k A^k (A^k).T, truncated.
        acc = np.zeros((n, n))
        term = np.eye(n)
        for _ in range(400):
            acc += term @ term.T
            term = A @ term
        assert np.linalg.norm(P - acc, "fro") <= 1e-8 * (1 + np.linalg.norm(P, "fro"))
        assert np.min(np.linalg.eigvalsh(P)) >= 1.0 - 1e-8


def test_dlyap_near_unit_radius_at_larger_sizes():
    rng = np.random.default_rng(6)
    for n in (10, 12, 20):
        for _ in range(5):
            A = rng.standard_normal((n, n))
            A *= 0.999 / matlin.spectral_radius(A)
            P = matlin.solve_dlyap(A)
            resid = np.linalg.norm(A @ P @ A.T - P + np.eye(n), "fro")
            assert resid <= 1e-13 * np.linalg.norm(P, "fro")


def test_dlyap_rejects_unit_spectral_radius():
    with pytest.raises(UnstableMatrix):
        matlin.solve_dlyap(np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(UnstableMatrix):
        matlin.solve_dlyap(np.diag([1.0 - 1e-10, 0.0]))


def test_dlyap_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        matlin.solve_dlyap(np.zeros((2, 3)))


def test_kron_broadcast_equals_numpy_kron_bitwise():
    # The Kronecker matrix of every Lyapunov solve is one broadcast product;
    # each entry is the same single product a_ij a_kl as in np.kron.
    rng = np.random.default_rng(11)
    for n in range(1, 11):
        A = rng.standard_normal((n, n))
        assert np.array_equal(matlin._kron(A), np.kron(A, A))


# -- solve_dare ---------------------------------------------------------------


def test_dare_zero_dynamics():
    K, S = matlin.solve_dare(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    assert np.allclose(K, 0.0)
    assert np.allclose(S, np.eye(2))


def test_dare_uncontrolled_stable_plant():
    A = 0.5 * np.eye(2)
    K, S = matlin.solve_dare(A, np.zeros((2, 1)), np.eye(2), np.eye(1))
    assert np.allclose(K, 0.0)
    # S solves S = A.T S A + Q.
    assert np.allclose(S, (4.0 / 3.0) * np.eye(2))


def test_dare_matches_scipy_seeded():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        A *= 0.95 / max(matlin.spectral_radius(A), 1e-3)
        B = rng.standard_normal((n, m))
        Q = random_spd(rng, n, spread=1.0)
        R = random_spd(rng, m, spread=1.0)
        K, S = matlin.solve_dare(A, B, Q, R)
        S_ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
        assert np.linalg.norm(S - S_ref, "fro") <= 1e-7 * (1 + np.linalg.norm(S_ref, "fro"))
        # Riccati fixed-point residual.
        BtS = B.T @ S
        resid = A.T @ S @ A - (BtS @ A).T @ np.linalg.solve(R + BtS @ B, BtS @ A) + Q - S
        assert np.linalg.norm(resid, "fro") <= 1e-8 * (1 + np.linalg.norm(S, "fro"))
        assert matlin.spectral_radius(A + B @ K) < 1.0
        checked += 1
    assert checked == 20


def scalar_dare(a, b, q, r):
    """Stabilizing (s, k) of the scalar DARE for a >= 1: the positive root of
    b^2 s^2 - ((a^2 - 1) r + q b^2) s - q r = 0, formed from positive terms
    only, and k = -a b s / (r + b^2 s)."""
    p = (a - 1.0) * (a + 1.0) * r + q * b * b
    s = (p + np.sqrt(p * p + 4.0 * b * b * q * r)) / (2.0 * b * b)
    return s, -a * b * s / (r + b * b * s)


@pytest.mark.parametrize(
    "a, b, r, rho",
    [(1.0001, 1e-6, 1.0, 0.9999), (1.0001, 1e-6, 1e12, 0.9999), (1.0 + 1e-6, 1e-8, 1.0, 1.0 - 1e-6)],
    ids=["barely-stabilizable", "expensive-input", "closed-loop-near-unit-circle"],
)
def test_dare_scalar_closed_form(a, b, r, rho):
    # The unstable mode is barely reachable, so the closed loop sits near
    # rho = 1/a and the doubling takes 19 to 26 of its 64 steps.
    s, k = scalar_dare(a, b, 1.0, r)
    K, S = matlin.solve_dare([[a]], [[b]], [[1.0]], [[r]])
    assert abs(K.item() - k) <= 1e-10 * abs(k)
    assert abs(S.item() - s) <= 1e-10 * s
    assert abs(a + b * K.item()) == pytest.approx(rho, abs=1e-3 * (1.0 - rho))


def test_dare_state_weight_dwarfs_input_weight():
    # A nearly rank-one Q of 1e10 against R = 0.1, as on the paper's gain path
    # at lambda3 = 1e10: I + GH in the doubling has condition ~1e11, which
    # costs the doubling alone about 4e-8 of K; the Newton step restores it.
    A = np.array([[0.37, -0.048], [-0.34, 0.64]])
    B = np.array([[0.96], [-0.014]])
    Q = 1e10 * np.array([[1.0, 1.0], [1.0, 1.1]])
    R = np.array([[0.1]])
    K, _ = matlin.solve_dare(A, B, Q, R)
    S_ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
    K_ref = -np.linalg.solve(R + B.T @ S_ref @ B, B.T @ S_ref @ A)
    assert np.linalg.norm(K - K_ref) <= 1e-10 * np.linalg.norm(K_ref)


@pytest.mark.parametrize(
    "A, B",
    [
        (2.0 * np.eye(2), np.zeros((2, 1))),
        (2.0 * np.eye(2), 1e-17 * np.ones((2, 1))),
        (np.diag([1.0, 0.5]), np.array([[0.0], [1.0]])),
        (np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 1))),
    ],
    ids=["0.0", "1e-17", "uncontrollable-unit-mode", "rotation"],
)
def test_dare_rejects_unstabilizable_pair(A, B):
    # B = 0 makes the doubling overflow; B = 1e-17 * 1 gives a finite solution
    # whose gain cannot move the unstable modes, caught by the rho check. An
    # uncontrollable mode on the unit circle leaves the doubling growing
    # without bound until its step cap. pyproject.toml makes any
    # RuntimeWarning on the way an error.
    with pytest.raises(NoConvergence):
        matlin.solve_dare(A, B, np.eye(2), np.eye(1))


def test_dare_refuses_gain_inside_the_stability_margin():
    # rho(A + B K) = 1 - 5e-10 sits below 1 but inside the margin where
    # solve_dlyap finds no Gramian, so the gain does not count as stabilizing.
    A, B = np.diag([1.0 - 5e-10, 0.5]), np.array([[0.0], [1.0]])
    with pytest.raises(NoConvergence, match="stabilize"):
        matlin.solve_dare(A, B, np.eye(2), np.eye(1))


# -- h2norm_sq ----------------------------------------------------------------


def test_h2_open_loop_identity_cost():
    val = matlin.h2norm_sq(np.zeros((2, 2)), np.zeros((1, 2)), np.eye(2), np.eye(1))
    assert val == pytest.approx(2.0, abs=1e-12)


def test_h2_contractive_loop():
    # P = (4/3) I from the Lyapunov solve, so tr(Q P) = 8/3.
    val = matlin.h2norm_sq(0.5 * np.eye(2), np.zeros((1, 2)), np.eye(2), np.eye(1))
    assert val == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_h2_penalizes_gain():
    A = np.array([[0.3, 0.1], [0.0, 0.4]])
    K = np.array([[0.2, -0.3]])
    B = np.array([[0.0], [1.0]])
    val = matlin.h2norm_sq(A + B @ K, K, np.eye(2), 2.0 * np.eye(1))
    P = matlin.solve_dlyap(A + B @ K)
    assert val == pytest.approx(np.trace(P) + 2.0 * (K @ P @ K.T).item(), rel=1e-12)


# -- validation at the public boundary ------------------------------------------

# Valid arguments (A, B, Q, R) for solve_dare; h2norm_sq takes (A_cl, K, Q, R)
# with K = B.T, and spectral_radius takes A alone.
A2, B2, Q2, R1 = 0.5 * np.eye(2), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1)
NAN_A = np.array([[0.5, np.nan], [0.0, 0.5]])
ASYM_Q = np.array([[1.0, 0.1], [0.0, 1.0]])
ASYM_R = np.array([[1.0, 1e-3], [0.0, 1.0]])


def test_public_kernels_accept_the_valid_arguments():
    K, _ = matlin.solve_dare(A2, B2, Q2, R1)
    assert matlin.h2norm_sq(A2 + B2 @ K, K, Q2, R1) > 0.0
    assert matlin.spectral_radius(A2) == 0.5


@pytest.mark.parametrize(
    "args, error",
    [
        ((NAN_A, B2, Q2, R1), ValueError),
        ((np.zeros((2, 3)), B2, Q2, R1), DimensionMismatch),
        ((A2, B2, ASYM_Q, R1), AsymmetricInput),
        ((A2, np.hstack([B2, B2]), Q2, ASYM_R), AsymmetricInput),
        ((A2, B2, np.eye(3), R1), DimensionMismatch),
        ((A2, B2, Q2, np.eye(2)), DimensionMismatch),
    ],
    ids=["non-finite", "non-square", "asymmetric-Q", "asymmetric-R", "Q-shape", "R-shape"],
)
def test_public_kernels_validate_their_inputs(args, error):
    A, B, Q, R = args
    with pytest.raises(error):
        matlin.solve_dare(A, B, Q, R)
    with pytest.raises(error):
        matlin.h2norm_sq(A, B.T, Q, R)


# Weights that solve_dare and h2norm_sq refuse: R must be positive definite
# and Q positive semidefinite.
BAD_QR = pytest.mark.parametrize(
    "Q, R, error",
    [
        (Q2, [[0.0]], NotPositiveDefinite),
        (Q2, [[-1.0]], NotPositiveDefinite),
        (-Q2, R1, IndefiniteInput),
    ],
    ids=["singular-R", "negative-R", "negative-Q"],
)


@BAD_QR
def test_dare_rejects_weights_before_iterating(Q, R, error):
    # The pair is stabilizable, so only the weight is at fault. Unchecked, a
    # singular R fails the doubling's first solve and a negative weight runs
    # all 64 steps, both as NoConvergence.
    with pytest.raises(error, match="Q" if error is IndefiniteInput else "R"):
        matlin.solve_dare(A2, B2, Q, R)


@BAD_QR
def test_h2norm_rejects_weights_as_solve_dare_does(Q, R, error):
    # The closed loop is stable, so only the weight is at fault. Unchecked,
    # Q = -I and R = -1 price this loop at -2.667.
    with pytest.raises(error, match="Q" if error is IndefiniteInput else "R"):
        matlin.h2norm_sq(0.5 * np.eye(2), np.zeros((1, 2)), Q, R)


@pytest.mark.parametrize(
    "A, error",
    [(NAN_A, ValueError), (np.zeros((2, 3)), DimensionMismatch)],
    ids=["non-finite", "non-square"],
)
def test_spectral_radius_validates_its_input(A, error):
    with pytest.raises(error):
        matlin.spectral_radius(A)
    with pytest.raises(error):
        matlin.solve_dlyap(A)


# -- LAPACK kernels -------------------------------------------------------------


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# The program's sizes: 2 x 2 to 4 x 4 Riccati and SDP blocks and (g, d, d)
# stacks of solver blocks; the next test takes a 100 x 100 Kronecker system.
@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (7, 3, 3), (41, 4, 4)])
def test_kernels_equal_numpy_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    A = rng.standard_normal(shape)
    X = rng.standard_normal(shape)
    S = X @ X.swapaxes(-1, -2) + 0.1 * np.eye(shape[-1])  # positive definite, unsymmetrized
    B = rng.standard_normal(shape[:-1] + (5,))
    assert same_bits(matlin._solve(A, B), np.linalg.solve(A, B))
    assert same_bits(matlin._inv(A), np.linalg.inv(A))
    assert same_bits(matlin._chol(S), np.linalg.cholesky(S))
    for got, want in zip(matlin._eigh(S), np.linalg.eigh(S)):
        assert same_bits(got, want)
    assert same_bits(matlin._eigvalsh(S), np.linalg.eigvalsh(S))
    for M in (A, S):  # complex and real spectra
        assert same_bits(np.abs(matlin._eigvals(M)), np.abs(np.linalg.eigvals(M)))
    if len(shape) == 2:
        b = rng.standard_normal(shape[0])
        assert same_bits(matlin._solve1(A, b), np.linalg.solve(A, b))
        for M in (A, S):
            assert matlin._rho(M) == np.max(np.abs(np.linalg.eigvals(M)))


def test_kernels_equal_numpy_on_the_kronecker_system():
    # The Gramian's system at n = 10, the largest plant-scaling draws.
    rng = np.random.default_rng(10)
    A = rng.standard_normal((10, 10))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    K = np.eye(100) - matlin._kron(A)
    w = np.eye(10).ravel()
    assert same_bits(matlin._solve1(K, w), np.linalg.solve(K, w))
    assert same_bits(matlin._inv(K), np.linalg.inv(K))
    assert matlin._rho(K) == np.max(np.abs(np.linalg.eigvals(K)))
    P = matlin.sym(np.linalg.solve(K, w).reshape(10, 10))
    assert same_bits(matlin._kron_lyap(A, np.eye(10)), P)


SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])
INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize(
    "kernel, public, args",
    [
        (matlin._solve1, np.linalg.solve, (SINGULAR, np.ones(2))),
        (matlin._solve, np.linalg.solve, (np.zeros((3, 2, 2)), np.ones((3, 2, 4)))),
        (matlin._inv, np.linalg.inv, (SINGULAR,)),
        (matlin._chol, np.linalg.cholesky, (SINGULAR,)),
        (matlin._chol, np.linalg.cholesky, (INDEFINITE,)),
        (matlin._chol, np.linalg.cholesky, (-np.ones((5, 3, 3)) * np.eye(3),)),
    ],
    ids=["solve1-singular", "solve-stack-singular", "inv-singular", "chol-singular",
         "chol-indefinite", "chol-stack-negative"],
)
def test_kernels_raise_numpy_linalg_errors(kernel, public, args):
    with pytest.raises(np.linalg.LinAlgError) as want:
        public(*args)
    with pytest.raises(np.linalg.LinAlgError) as got:
        kernel(*args)
    assert str(got.value) == str(want.value)
    # _dare calls the kernels under errstate(all="ignore"); they still raise.
    with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
        kernel(*args)


@pytest.mark.parametrize("M", [SINGULAR, INDEFINITE], ids=["singular", "indefinite"])
def test_eigen_kernels_equal_numpy_off_the_definite_cone(M):
    for got, want in zip(matlin._eigh(M), np.linalg.eigh(M)):
        assert same_bits(got, want)
    assert same_bits(matlin._eigvalsh(M), np.linalg.eigvalsh(M))
    assert matlin._rho(M) == np.max(np.abs(np.linalg.eigvals(M)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rho_refuses_a_non_finite_matrix(bad):
    M = np.array([[0.5, bad], [0.0, 0.5]])
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.eigvals(M)
    with pytest.raises(np.linalg.LinAlgError, match="^Array must not contain infs or NaNs$") as got:
        matlin._rho(M)
    assert str(got.value) == str(want.value)
