"""Regularizer effects: closed forms vs first-principles oracles."""

import numpy as np
import pytest

from ddlqr.datamodel import Dataset, compute_stats, kernel_projector
from ddlqr.effects import (
    EffectBreakdown,
    OracleCertificate,
    RegWeights,
    eval_reg_covar,
    eval_reg_gram,
    param_effect_closed,
    param_effect_oracle,
)
from ddlqr.errors import (
    DimensionMismatch,
    InfeasibleConstraint,
    NotPositiveDefinite,
    SingularCovariance,
)
from ddlqr.harness.experiments import ReferenceExperimentConfig, gen_reference_data
from ddlqr.matlin import pinv, sym


def noisy_dataset(seed, ell=30):
    return gen_reference_data(ReferenceExperimentConfig(seed=seed, ell=ell))


def noiseless_dataset(seed, ell=30):
    return gen_reference_data(ReferenceExperimentConfig(seed=seed, ell=ell, noise_std=0.0))


def unit_cov_dataset(seed=0, ell=16):
    # sqrt(16) is exact, so cov_x0 = x0 x0^T / ell is exactly the identity.
    rng = np.random.default_rng(seed)
    x0 = 4.0 * np.eye(2, ell)
    u0 = rng.standard_normal((1, ell))
    x1 = rng.standard_normal((2, ell))
    return Dataset(x0=x0, u0=u0, x1=x1)


def rand_spd(rng, n, lo=1.0, hi=10.0):
    Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return sym(Qm @ np.diag(rng.uniform(lo, hi, n)) @ Qm.T)


def closed_total_direct(K, A_cl, P, stats, w):
    # Independent evaluation: plain inverses and traces, no shared helpers.
    vals = []
    pairs = [
        (w.lambda1, A_cl - (stats.a_ls + stats.b_ls @ K), stats.cov_resid_x),
        (w.lambda2, K - stats.k_ls, stats.cov_resid_u),
        (w.lambda3, np.eye(stats.n), stats.cov_x0),
    ]
    for lam_i, dev, cov in pairs:
        if lam_i == 0.0:
            vals.append(0.0)
            continue
        vals.append(lam_i * float(np.trace(np.linalg.inv(cov) @ dev @ P @ dev.T)))
    total = sum(vals)
    return total / stats.ell if w.ell_scaling else total


def test_weights_validation():
    with pytest.raises(ValueError):
        RegWeights(lambda1=-1.0)
    with pytest.raises(ValueError):
        RegWeights(lambda2=float("nan"))
    with pytest.raises(ValueError):
        RegWeights(parameterization="other")
    with pytest.raises(ValueError):
        RegWeights(lambda1=1.0, parameterization="covariance")


def test_weights_defaults_and_labels():
    g = RegWeights(lambda1=1.0, lambda3=2.0)
    assert g.parameterization == "gram"
    assert g.ell_scaling is True
    assert g.case_label == "{1,3}"
    c = RegWeights(lambda2=1.0, parameterization="covariance")
    assert c.ell_scaling is False
    assert c.case_label == "{2}"
    assert RegWeights().case_label == "{}"


def test_reg_gram_zero_matrix():
    d = noisy_dataset(0)
    G = np.zeros((d.ell, d.n))
    assert eval_reg_gram(G, np.eye(d.n), 3.0, False, d) == 0.0
    assert eval_reg_gram(G, np.eye(d.n), 3.0, True, d) == 0.0


def test_reg_gram_unit_norm_identity():
    d = noisy_dataset(1)
    rng = np.random.default_rng(7)
    G = rng.standard_normal((d.ell, d.n))
    G /= np.linalg.norm(G)
    val = eval_reg_gram(G, np.eye(d.n), 2.0, False, d)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_reg_gram_projected_annihilates_row_space():
    d = noisy_dataset(2)
    stats = compute_stats(d)
    rng = np.random.default_rng(11)
    C = rng.standard_normal((stats.n + stats.m, stats.n))
    G = pinv(d.data0()) @ C
    P = rand_spd(rng, stats.n)
    assert eval_reg_gram(G, P, 3.0, True, d) <= 1e-10
    assert eval_reg_gram(G, P, 3.0, False, d) > 1e-6


def test_reg_gram_direct_trace_crosscheck():
    d = noisy_dataset(3)
    rng = np.random.default_rng(13)
    G = rng.standard_normal((d.ell, d.n))
    P = rand_spd(rng, d.n)
    for projected in (False, True):
        M = kernel_projector(d) @ G if projected else G
        direct = 1.7 * float(np.trace(M @ P @ M.T))
        val = eval_reg_gram(G, P, 1.7, projected, d)
        assert val == pytest.approx(direct, rel=1e-12)


def test_reg_covar_zero_weight():
    stats = compute_stats(noisy_dataset(4))
    rng = np.random.default_rng(17)
    K = rng.standard_normal((stats.m, stats.n))
    assert eval_reg_covar(K, np.eye(stats.n), 0.0, stats) == 0.0


def test_reg_covar_at_ls_gain_reduces_to_state_term():
    stats = compute_stats(noisy_dataset(5))
    val = eval_reg_covar(stats.k_ls, np.eye(stats.n), 2.5, stats)
    expect = 2.5 * float(np.trace(np.linalg.inv(stats.cov_x0)))
    assert val == pytest.approx(expect, rel=1e-9)


# A weight that is NaN, negative or infinite is a ValueError naming lambda in
# every evaluator, as in RegWeights and the baseline builders, not a nan, a
# negative or an infinite regularizer.
BAD_WEIGHTS = [float("nan"), -1.0, float("inf")]


@pytest.mark.parametrize("lam", BAD_WEIGHTS)
def test_reg_gram_rejects_bad_weight(lam):
    d = noisy_dataset(0)
    with pytest.raises(ValueError, match="lambda"):
        eval_reg_gram(np.zeros((d.ell, d.n)), np.eye(d.n), lam, False, d)


@pytest.mark.parametrize("lam", BAD_WEIGHTS)
def test_reg_covar_rejects_bad_weight(lam):
    stats = compute_stats(noisy_dataset(0))
    with pytest.raises(ValueError, match="lambda"):
        eval_reg_covar(stats.k_ls, np.eye(stats.n), lam, stats)


@pytest.mark.parametrize("lam", BAD_WEIGHTS)
def test_oracle_rejects_bad_weight(lam):
    d = noiseless_dataset(11)
    stats = compute_stats(d)
    K = np.zeros((stats.m, stats.n))
    with pytest.raises(ValueError, match="lambda"):
        param_effect_oracle(K, stats.a_ls, np.eye(stats.n), d, lam, "full_gram")


def test_reg_covar_singular_covariance_raises():
    # Rows of x0 nearly parallel: the data passes the rank check but the
    # sample covariance condition number is beyond the inversion cutoff.
    rng = np.random.default_rng(5)
    base = rng.standard_normal(12)
    x0 = np.vstack([base, base + 1e-8 * rng.standard_normal(12)])
    u0 = rng.standard_normal((1, 12))
    x1 = rng.standard_normal((2, 12))
    stats = compute_stats(Dataset(x0=x0, u0=u0, x1=x1))
    with pytest.raises(SingularCovariance):
        eval_reg_covar(np.zeros((1, 2)), np.eye(2), 1.0, stats)


def test_closed_terms_vanish_at_ls_values():
    stats = compute_stats(noisy_dataset(6))
    K = stats.k_ls
    A_cl = stats.a_ls + stats.b_ls @ K
    P = rand_spd(np.random.default_rng(19), stats.n)
    w = RegWeights(lambda1=0.7, lambda2=1.3, lambda3=2.0)
    br = param_effect_closed(K, A_cl, P, stats, w)
    assert br.h1 <= 1e-12
    assert br.h2 <= 1e-12
    expect = 2.0 / stats.ell * float(np.trace(np.linalg.inv(stats.cov_x0) @ P))
    assert br.total == pytest.approx(expect, rel=1e-9)


def test_closed_exploration_term_counts_dimensions():
    stats = compute_stats(unit_cov_dataset())
    w = RegWeights(lambda3=1.0)
    br = param_effect_closed(
        np.zeros((stats.m, stats.n)), np.zeros((stats.n, stats.n)), np.eye(stats.n), stats, w
    )
    assert br.h3 == pytest.approx(2.0, rel=1e-12)


def test_closed_requires_positive_definite_covariance():
    stats = compute_stats(noiseless_dataset(7))
    rng = np.random.default_rng(23)
    K = rng.standard_normal((stats.m, stats.n))
    A_cl = rng.standard_normal((stats.n, stats.n))
    P = np.eye(stats.n)
    with pytest.raises(NotPositiveDefinite, match="cov_resid_x"):
        param_effect_closed(K, A_cl, P, stats, RegWeights(lambda1=1.0))
    # Zero weight on the singular term: evaluation proceeds, term reports 0.
    br = param_effect_closed(K, A_cl, P, stats, RegWeights(lambda2=1.0, lambda3=1.0))
    assert br.h1 == 0.0
    assert br.h2 > 0.0
    assert br.total > 0.0


def test_closed_rejects_indefinite_p():
    stats = compute_stats(noisy_dataset(8))
    P = np.diag([1.0, 0.0])
    with pytest.raises(NotPositiveDefinite):
        param_effect_closed(
            np.zeros((stats.m, stats.n)), np.zeros((stats.n, stats.n)), P, stats, RegWeights()
        )


def test_closed_matches_full_oracle():
    for t in range(100):
        rng = np.random.default_rng(1000 + t)
        d = noisy_dataset(1000 + t)
        stats = compute_stats(d)
        assert stats.rank_report.full_rank_holds
        K = rng.standard_normal((stats.m, stats.n))
        A_cl = rng.standard_normal((stats.n, stats.n))
        P = rand_spd(rng, stats.n)
        lam = 10.0 ** rng.uniform(-2.0, 2.0)
        w = RegWeights(lambda1=lam, lambda2=lam, lambda3=lam)
        closed = param_effect_closed(K, A_cl, P, stats, w)
        cert = param_effect_oracle(K, A_cl, P, d, lam, "full_gram")
        assert cert.constraint_residual <= 1e-8
        assert cert.objective == pytest.approx(closed.total, rel=1e-8)
        assert closed.total == pytest.approx(
            closed_total_direct(K, A_cl, P, stats, w), rel=1e-8
        )


def test_closed_matches_projected_oracle():
    for t in range(100):
        rng = np.random.default_rng(2000 + t)
        d = noisy_dataset(2000 + t)
        stats = compute_stats(d)
        assert stats.rank_report.full_rank_holds
        K = rng.standard_normal((stats.m, stats.n))
        A_cl = rng.standard_normal((stats.n, stats.n))
        P = rand_spd(rng, stats.n)
        lam = 10.0 ** rng.uniform(-2.0, 2.0)
        w = RegWeights(lambda1=lam)
        closed = param_effect_closed(K, A_cl, P, stats, w)
        cert = param_effect_oracle(K, A_cl, P, d, lam, "projected_gram")
        assert cert.constraint_residual <= 1e-8
        assert cert.objective == pytest.approx(closed.total, rel=1e-8)
        assert closed.total == pytest.approx(lam / stats.ell * closed.h1, rel=1e-12)


def test_covar_reg_equals_weighted_closed_form():
    d = noisy_dataset(9)
    stats = compute_stats(d)
    for t in range(100):
        rng = np.random.default_rng(3000 + t)
        K = rng.standard_normal((stats.m, stats.n))
        P = rand_spd(rng, stats.n)
        lam = 10.0 ** rng.uniform(-2.0, 2.0)
        val = eval_reg_covar(K, P, lam, stats)
        w = RegWeights(lambda2=lam, lambda3=lam, parameterization="covariance")
        A_cl = rng.standard_normal((stats.n, stats.n))
        closed = param_effect_closed(K, A_cl, P, stats, w)
        assert val == pytest.approx(closed.total, rel=1e-9)
        assert val == pytest.approx(closed_total_direct(K, A_cl, P, stats, w), rel=1e-9)


def test_oracle_minimizer_beats_feasible_perturbations():
    for t in range(20):
        rng = np.random.default_rng(4000 + t)
        d = noisy_dataset(4000 + t)
        stats = compute_stats(d)
        K = rng.standard_normal((stats.m, stats.n))
        A_cl = rng.standard_normal((stats.n, stats.n))
        P = rand_spd(rng, stats.n)
        lam = 10.0 ** rng.uniform(-1.0, 1.0)
        D = d.data_full()
        kernel = np.eye(stats.ell) - pinv(D) @ D
        pi = kernel_projector(d)
        for kind in ("full_gram", "projected_gram"):
            cert = param_effect_oracle(K, A_cl, P, d, lam, kind)
            base = np.sqrt(cert.objective)
            for _ in range(50):
                g = cert.g_opt + kernel @ rng.standard_normal((stats.ell, stats.n))
                assert np.max(np.abs(D @ g - D @ cert.g_opt)) <= 1e-8
                M = pi @ g if kind == "projected_gram" else g
                perturbed = np.sqrt(lam) * np.linalg.norm(M)
                assert base <= perturbed * (1.0 + 1e-9) + 1e-12


def test_closed_oracle_agree_for_arbitrary_spd_weight():
    # Weight matrix from an unconstrained SPD construction, unrelated to any
    # fixed-point equation and with widely spread eigenvalues.
    for t in range(20):
        rng = np.random.default_rng(5000 + t)
        d = noisy_dataset(5000 + t)
        stats = compute_stats(d)
        K = rng.standard_normal((stats.m, stats.n))
        A_cl = rng.standard_normal((stats.n, stats.n))
        B = rng.standard_normal((stats.n, 3 * stats.n))
        S = sym(B @ B.T + 0.05 * np.eye(stats.n))
        lam = 10.0 ** rng.uniform(-1.0, 1.0)
        w = RegWeights(lambda1=lam, lambda2=lam, lambda3=lam)
        closed = param_effect_closed(K, A_cl, S, stats, w)
        cert = param_effect_oracle(K, A_cl, S, d, lam, "full_gram")
        assert cert.objective == pytest.approx(closed.total, rel=1e-8)


def test_oracle_infeasible_pair_raises():
    d = noiseless_dataset(10)
    stats = compute_stats(d)
    rng = np.random.default_rng(29)
    K = rng.standard_normal((stats.m, stats.n))
    A_cl = stats.a_ls + stats.b_ls @ K + 0.3 * np.eye(stats.n)
    for kind in ("full_gram", "projected_gram"):
        with pytest.raises(InfeasibleConstraint):
            param_effect_oracle(K, A_cl, np.eye(stats.n), d, 1.0, kind)


def test_oracle_consistent_pair_on_noiseless_data():
    d = noiseless_dataset(11)
    stats = compute_stats(d)
    rng = np.random.default_rng(31)
    K = rng.standard_normal((stats.m, stats.n))
    A_cl = stats.a_ls + stats.b_ls @ K
    cert = param_effect_oracle(K, A_cl, np.eye(stats.n), d, 1.0, "full_gram")
    assert cert.constraint_residual <= 1e-8
    assert cert.objective > 0.0


def test_oracle_covariance_kind_ignores_closed_loop():
    d = noisy_dataset(12)
    stats = compute_stats(d)
    rng = np.random.default_rng(37)
    K = rng.standard_normal((stats.m, stats.n))
    P = rand_spd(rng, stats.n)
    a1 = rng.standard_normal((stats.n, stats.n))
    a2 = rng.standard_normal((stats.n, stats.n))
    c1 = param_effect_oracle(K, a1, P, d, 2.0, "covariance")
    c2 = param_effect_oracle(K, a2, P, d, 2.0, "covariance")
    assert c1.objective == c2.objective
    assert c1.objective == pytest.approx(eval_reg_covar(K, P, 2.0, stats), rel=1e-12)
    assert c1.constraint_residual <= 1e-8
    assert c1.g_opt.shape == (stats.n + stats.m, stats.n)


def test_oracle_rejects_unknown_kind():
    d = noisy_dataset(13)
    with pytest.raises(ValueError):
        param_effect_oracle(np.zeros((1, 2)), np.zeros((2, 2)), np.eye(2), d, 1.0, "other")


def test_shape_validation():
    d = noisy_dataset(16)
    stats = compute_stats(d)
    with pytest.raises(DimensionMismatch):
        eval_reg_gram(np.zeros((d.ell + 1, d.n)), np.eye(d.n), 1.0, False, d)
    with pytest.raises(DimensionMismatch):
        eval_reg_covar(np.zeros((stats.m, stats.n + 1)), np.eye(stats.n), 1.0, stats)
    with pytest.raises(DimensionMismatch):
        param_effect_closed(
            np.zeros((stats.m, stats.n)),
            np.zeros((stats.n, stats.n + 1)),
            np.eye(stats.n),
            stats,
            RegWeights(),
        )


def test_breakdown_and_certificate_are_frozen():
    br = EffectBreakdown(h1=0.0, h2=0.0, h3=1.0, total=1.0)
    with pytest.raises(AttributeError):
        br.h1 = 2.0
    cert = OracleCertificate(g_opt=np.zeros((3, 2)), objective=0.0, constraint_residual=0.0)
    with pytest.raises(AttributeError):
        cert.objective = 1.0
