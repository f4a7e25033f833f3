"""Data container, rank checks, statistics, and CSV round trips."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from ddlqr.datamodel import (
    Dataset,
    compute_stats,
    kernel_projector,
    load_dataset,
    row_space_basis,
    save_dataset,
)
from ddlqr.effects import RegWeights, param_effect_closed
from ddlqr.errors import (
    DimensionMismatch,
    ExcitationViolation,
    NotPositiveDefinite,
    ParseError,
    SingularCovariance,
    StateRankViolation,
)
from ddlqr.matlin import RANK_TOL
from ddlqr.synthesis import reduced_sdp, synth_reduced_gram
from ddlqr.harness import rng
from ddlqr.harness.experiments import (
    ReferenceExperimentConfig,
    gen_reference_data,
    simulate_closed_loop,
)


def noisy_dataset(seed, ell=30):
    return gen_reference_data(ReferenceExperimentConfig(seed=seed, ell=ell))


def noiseless_dataset(seed):
    cfg = ReferenceExperimentConfig(seed=seed, noise_std=0.0)
    return gen_reference_data(cfg)


# -- generator ----------------------------------------------------------------


def test_column_draws_are_prefix_stable():
    short = rng.normal_matrix(9, rng.STREAM_NOISE, 2, 30)
    long = rng.normal_matrix(9, rng.STREAM_NOISE, 2, 120)
    assert np.array_equal(short, long[:, :30])


def philox_column(seed, stream, column, rows):
    # One numpy Philox generator per column, then Box-Muller: the sampling
    # format, written out independently of the vectorized implementation.
    key = np.array([seed, 0x9E3779B97F4A7C15], dtype=np.uint64)
    counter = np.array([0, 0, column, stream], dtype=np.uint64)
    npairs = (rows + 1) // 2
    u = np.random.Generator(np.random.Philox(counter=counter, key=key)).random(2 * npairs)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:npairs]))
    z = np.empty(2 * npairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u[npairs:])
    z[1::2] = r * np.sin(2.0 * np.pi * u[npairs:])
    return z[:rows]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**63 + 5])
def test_draws_match_numpy_philox_bitwise(seed):
    for stream in (rng.STREAM_STATE, rng.STREAM_INPUT, rng.STREAM_NOISE):
        for rows in range(1, 10):
            z = rng.normal_matrix(seed, stream, rows, 37)
            ref = np.column_stack([philox_column(seed, stream, c, rows) for c in range(37)])
            assert np.array_equal(z, ref)
            # each column is prefix-stable: fewer columns leave it as it is
            assert np.array_equal(rng.normal_matrix(seed, stream, rows, 36), z[:, :36])


# The key holds the seed as one 64-bit word: a seed it would wrap or truncate
# is refused, as a negative std is.
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_normal_matrix_rejects_seeds_outside_the_key(seed):
    with pytest.raises(ValueError, match="seed"):
        rng.normal_matrix(seed, rng.STREAM_STATE, 2, 3)


def test_streams_are_distinct_and_deterministic():
    a = rng.normal_matrix(3, rng.STREAM_STATE, 4, 8)
    b = rng.normal_matrix(3, rng.STREAM_INPUT, 4, 8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, rng.normal_matrix(3, rng.STREAM_STATE, 4, 8))
    assert not np.array_equal(a, rng.normal_matrix(4, rng.STREAM_STATE, 4, 8))


def test_draws_look_standard_normal():
    z = rng.normal_matrix(11, rng.STREAM_STATE, 50, 200)
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05
    assert abs((z**4).mean() - 3.0) < 0.3  # Gaussian kurtosis


def test_noiseless_rollout_obeys_dynamics():
    cfg = ReferenceExperimentConfig(seed=5, noise_std=0.0, x_rnd_std=1.0, u_rnd_std=1.0)
    d = gen_reference_data(cfg)
    assert np.abs(d.x1 - (cfg.a @ d.x0 + cfg.b @ d.u0)).max() == 0.0
    rep = compute_stats(d).rank_report
    assert rep.rank_full == rep.rank_data0


def test_reference_data_matches_protocol():
    cfg = ReferenceExperimentConfig(seed=42)
    d = gen_reference_data(cfg)
    # column means sit near the exploration offset
    assert np.linalg.norm(d.x0.mean(axis=1) - 10.0 * cfg.v) < 1.0
    st = compute_stats(d)
    assert np.linalg.norm(st.k_ls - cfg.k_expl) <= 0.5


def test_config_validation():
    with pytest.raises(DimensionMismatch):
        ReferenceExperimentConfig(ell=2)
    with pytest.raises(DimensionMismatch):
        ReferenceExperimentConfig(noise_std=-0.1)
    with pytest.raises(DimensionMismatch):
        ReferenceExperimentConfig(k_expl=np.array([[1.0, 2.0, 3.0]]))
    # The seed is one 64-bit word of the generator's key.
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(DimensionMismatch, match="seed"):
            ReferenceExperimentConfig(seed=seed)
    assert ReferenceExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1


# -- rank checks --------------------------------------------------------------


def test_rank_flags_noiseless_vs_noisy():
    rep0 = compute_stats(noiseless_dataset(42)).rank_report
    assert (rep0.rank_data0, rep0.rank_full) == (3, 3)
    assert rep0.pe_holds and not rep0.full_rank_holds

    rep = compute_stats(noisy_dataset(42)).rank_report
    assert (rep.rank_data0, rep.rank_full) == (3, 5)
    assert rep.pe_holds and rep.full_rank_holds


def test_short_data_cannot_be_exciting():
    d = Dataset(x0=np.eye(2), u0=np.ones((1, 2)), x1=np.eye(2))
    with pytest.raises(ExcitationViolation, match="has rank 2, need 3"):
        compute_stats(d)


def test_rank_report_bounds():
    for seed in range(8):
        d = noisy_dataset(seed)
        rep = compute_stats(d).rank_report
        assert rep.rank_data0 <= min(d.n + d.m, d.ell)
        assert rep.rank_full <= min(2 * d.n + d.m, d.ell)
        assert rep.rank_full >= rep.rank_data0


# -- statistics ---------------------------------------------------------------


def test_noiseless_stats_recover_plant():
    cfg = ReferenceExperimentConfig(seed=7, noise_std=0.0)
    st = compute_stats(gen_reference_data(cfg))
    assert np.abs(st.a_ls - cfg.a).max() <= 1e-8
    assert np.abs(st.b_ls - cfg.b).max() <= 1e-8
    assert np.abs(st.cov_resid_x).max() <= 1e-12


def test_pure_feedback_inputs_make_zero_input_residual():
    # without input dither the input rows are linear in the state rows, so
    # the stacked data cannot be exciting and the gated path must refuse;
    # the gain fit itself is still exact
    cfg = ReferenceExperimentConfig(seed=7, u_rnd_std=0.0)
    d = gen_reference_data(cfg)
    with pytest.raises(ExcitationViolation):
        compute_stats(d)
    k_fit = d.u0 @ np.linalg.pinv(d.x0)
    assert np.abs(k_fit - cfg.k_expl).max() <= 1e-8
    resid = d.u0 - k_fit @ d.x0
    assert np.abs(resid @ resid.T / d.ell).max() <= 1e-12


def test_least_squares_orthogonality_and_projector():
    for seed in range(10):
        d = noisy_dataset(seed)
        st = compute_stats(d)
        d0 = d.data0()
        resid_x = d.x1 - np.hstack([st.a_ls, st.b_ls]) @ d0
        resid_u = d.u0 - st.k_ls @ d.x0
        assert np.abs(resid_x @ d0.T).max() <= 1e-8
        assert np.abs(resid_u @ d.x0.T).max() <= 1e-8
        pi = kernel_projector(d)
        assert np.abs(pi - pi.T).max() <= 1e-10
        assert np.abs(pi @ pi - pi).max() <= 1e-10
        assert np.abs(d0 @ pi).max() <= 1e-10
        pinv_right = d0 @ np.linalg.pinv(d0)
        assert np.abs(pinv_right - np.eye(d.n + d.m)).max() <= 1e-10


def pinv_stats(d):
    # The pseudoinverse/SVD formulas the statistics were once computed with.
    d0 = d.data0()
    ab = d.x1 @ np.linalg.pinv(d0, rcond=RANK_TOL)
    k = d.u0 @ np.linalg.pinv(d.x0, rcond=RANK_TOL)
    rx = d.x1 - ab @ d0
    ru = d.u0 - k @ d.x0
    sv = np.linalg.svd(d.data_full(), compute_uv=False)
    sv0 = np.linalg.svd(d0, compute_uv=False)
    stats = {
        "a_ls": ab[:, : d.n],
        "b_ls": ab[:, d.n :],
        "k_ls": k,
        "cov_x0": d.x0 @ d.x0.T / d.ell,
        "cov_d0": d0 @ d0.T / d.ell,
        "cov_resid_x": rx @ rx.T / d.ell,
        "cov_resid_u": ru @ ru.T / d.ell,
    }
    ranks = (int(np.sum(sv0 > RANK_TOL * sv0[0])), int(np.sum(sv > RANK_TOL * sv[0])))
    return stats, ranks, sv


def random_plant_dataset(seed, n, m, ell):
    gen = np.random.default_rng(seed)
    M = gen.standard_normal((n, n))
    cfg = ReferenceExperimentConfig(
        a=0.9 * M / np.max(np.abs(np.linalg.eigvals(M))),
        b=gen.standard_normal((n, m)),
        q=np.eye(n),
        r=np.eye(m),
        ell=ell,
        v=np.zeros(n),
        offset_scale=0.0,
        k_expl=gen.standard_normal((m, n)),
        seed=seed,
    )
    return gen_reference_data(cfg)


@pytest.mark.parametrize(
    "n,m,ell", [(2, 1, 30), (2, 1, 500), (4, 2, 18), (4, 2, 400), (10, 4, 42), (10, 4, 400)]
)
def test_stats_match_pseudoinverse_formulas(n, m, ell):
    # n = 2 is the reference plant, larger n seeded random stable plants
    for seed in range(4):
        d = noisy_dataset(seed, ell) if n == 2 else random_plant_dataset(seed, n, m, ell)
        st = compute_stats(d)
        ref, ranks, sv = pinv_stats(d)
        for name, val in ref.items():
            got = getattr(st, name)
            assert np.abs(got - val).max() <= 1e-10 * np.abs(val).max(), name
        assert (st.rank_report.rank_data0, st.rank_report.rank_full) == ranks
        assert np.abs(st.rank_report.singular_values - sv).max() <= 1e-10 * sv[0]


def test_rank_deficient_data_raise_typed_errors():
    d = noisy_dataset(3)
    # input rows that repeat a state row: x0 alone still has rank n
    twin = Dataset(x0=d.x0, u0=d.x0[1:] * 3.0, x1=d.x1)
    with pytest.raises(ExcitationViolation) as exc:
        compute_stats(twin)
    assert not isinstance(exc.value, StateRankViolation)
    # one state row a multiple of the other: x0 itself is rank deficient
    flat = Dataset(x0=np.vstack([d.x0[0], -2.0 * d.x0[0]]), u0=d.u0, x1=d.x1)
    with pytest.raises(StateRankViolation):
        compute_stats(flat)
    for bad in (twin, flat):
        with pytest.raises(ExcitationViolation):
            row_space_basis(bad)


def test_rank_cutoff_applies_to_singular_values_not_their_squares():
    # an input that is a state row plus a 1e-7 dither: the stack has a
    # singular-value ratio near 1e-7, above the 1e-10 cutoff, while its
    # square would fall below it
    d = noisy_dataset(5)
    gen = np.random.default_rng(5)
    for scale, exciting in ((1e-7, True), (1e-13, False)):
        u0 = d.x0[:1] + scale * gen.standard_normal((1, d.ell))
        near = Dataset(x0=d.x0, u0=u0, x1=d.x1)
        if exciting:
            assert compute_stats(near).rank_report.rank_data0 == 3
        else:
            with pytest.raises(ExcitationViolation):
                compute_stats(near)


@pytest.mark.parametrize("ell", [3, 4])
def test_records_shorter_than_full_stack(ell):
    # 2n+m = 5 > ell >= n+m = 3: the full stack cannot have full row rank,
    # and the successor residuals keep ell - (n+m) degrees of freedom
    d = noisy_dataset(8, ell=ell)
    st = compute_stats(d)
    ref, ranks, sv = pinv_stats(d)
    scale = np.abs(ref["cov_d0"]).max()
    for name, val in ref.items():
        assert np.abs(getattr(st, name) - val).max() <= 1e-10 * max(scale, np.abs(val).max())
    assert (st.rank_report.rank_data0, st.rank_report.rank_full) == ranks == (3, ell)
    assert st.rank_report.singular_values.shape == (ell,)
    assert not st.rank_report.full_rank_holds
    assert np.linalg.matrix_rank(st.cov_resid_x, tol=1e-10 * scale) == ell - 3


def test_stats_memory_does_not_grow_with_record_length():
    ell = 50_000
    d = noisy_dataset(1, ell=ell)
    tracemalloc.start()
    try:
        st = compute_stats(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert st.ell == ell
    assert np.linalg.norm(st.k_ls - ReferenceExperimentConfig().k_expl) <= 0.05


def test_ls_fit_is_a_strict_minimum():
    # oracle: objective evaluated directly under 50 random perturbations
    gen = np.random.default_rng(77)
    for seed in range(20):
        d = noisy_dataset(seed)
        st = compute_stats(d)
        d0 = d.data0()
        ab = np.hstack([st.a_ls, st.b_ls])
        base_x = np.linalg.norm(d.x1 - ab @ d0) ** 2
        base_u = np.linalg.norm(d.u0 - st.k_ls @ d.x0) ** 2
        for _ in range(50):
            dm = gen.standard_normal(ab.shape)
            dm /= np.linalg.norm(dm)
            assert np.linalg.norm(d.x1 - (ab + 1e-3 * dm) @ d0) ** 2 > base_x
            dk = gen.standard_normal(st.k_ls.shape)
            dk /= np.linalg.norm(dk)
            assert np.linalg.norm(d.u0 - (st.k_ls + 1e-3 * dk) @ d.x0) ** 2 > base_u


def test_covariance_block_inverse_identity():
    # oracle: direct inversion of the stacked covariance
    for seed in range(10):
        st = compute_stats(noisy_dataset(seed))
        direct = np.linalg.inv(st.cov_d0)
        isx = np.linalg.inv(st.cov_x0)
        isu = np.linalg.inv(st.cov_resid_u)
        k = st.k_ls
        recon = np.block([[isx + k.T @ isu @ k, -k.T @ isu], [-isu @ k, isu]])
        assert np.abs(direct - recon).max() <= 1e-8 * (1.0 + np.abs(direct).max())


def test_residual_covariance_definite_iff_full_rank():
    noisy = compute_stats(noisy_dataset(3))
    clean = compute_stats(noiseless_dataset(3))
    assert np.linalg.eigvalsh(noisy.cov_resid_x)[0] > 1e-12 * np.trace(noisy.cov_resid_x)
    assert noisy.rank_report.full_rank_holds
    # noiseless residuals vanish at the scale of the data itself
    assert np.linalg.eigvalsh(clean.cov_resid_x)[0] <= 1e-12 * np.trace(clean.cov_x0)
    assert not clean.rank_report.full_rank_holds


def _inv_sqrt(cov):
    w, v = np.linalg.eigh(cov)
    return (v / np.sqrt(w)) @ v.T


FACTORS = {
    "cov_x0_inv": (np.linalg.inv, "cov_x0"),
    "cov_x0_inv_sqrt": (_inv_sqrt, "cov_x0"),
    "cov_d0_inv": (np.linalg.inv, "cov_d0"),
    "cov_resid_x_inv": (np.linalg.inv, "cov_resid_x"),
    "cov_resid_x_inv_sqrt": (_inv_sqrt, "cov_resid_x"),
    "cov_resid_u_inv": (np.linalg.inv, "cov_resid_u"),
    "cov_resid_u_inv_sqrt": (_inv_sqrt, "cov_resid_u"),
}


def test_covariance_factors_are_computed_once_per_instance():
    st = compute_stats(noisy_dataset(3))
    for attr, (fn, field) in FACTORS.items():
        first = getattr(st, attr)
        want = fn(getattr(st, field))
        assert np.abs(first - want).max() <= 1e-8 * np.abs(want).max(), attr
        assert np.array_equal(first, first.T), attr
        assert getattr(st, attr) is first
        assert not first.flags.writeable
    # The factors live in the instance and die with it.
    ref = weakref.ref(st)
    del st, first
    gc.collect()
    assert ref() is None


def test_covariance_inverse_keeps_precision_at_condition_1e8():
    # [x0; u0] = U diag(1e2, 1, 1e-2) V^T, so cov_d0 = U diag(s^2) U^T / ell
    # has condition number 1e8 and inverse ell U diag(s^-2) U^T. Squaring
    # the data (an eigendecomposition of cov_d0) loses about eight digits
    # of the smallest direction; the SVD of the data's factor keeps them.
    ell = 40
    gen = np.random.default_rng(3)
    u, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    v, _ = np.linalg.qr(gen.standard_normal((ell, 3)))
    s = np.array([1e2, 1.0, 1e-2])
    d0 = (u * s) @ v.T
    d = Dataset(x0=d0[:2], u0=d0[2:], x1=gen.standard_normal((2, ell)))
    st = compute_stats(d)
    want = ell * (u / s**2) @ u.T
    err = np.linalg.norm(st.cov_d0_inv - want) / np.linalg.norm(want)
    assert np.linalg.cond(st.cov_d0) == pytest.approx(1e8, rel=1e-3)
    assert err <= 1e-12, err


def test_singular_residual_factor_is_never_cached():
    st = compute_stats(noiseless_dataset(3))
    q, r = np.eye(st.n), np.eye(st.m)
    for _ in range(2):
        for attr in ("cov_resid_x_inv", "cov_resid_x_inv_sqrt"):
            with pytest.raises(NotPositiveDefinite, match="cov_resid_x is singular"):
                getattr(st, attr)
        for request in (
            lambda w: param_effect_closed(
                st.k_ls, st.a_ls + st.b_ls @ st.k_ls, np.eye(st.n), st, w
            ),
            lambda w: synth_reduced_gram(st, q, r, w),
            lambda w: reduced_sdp(st, q, r, w),
        ):
            with pytest.raises(NotPositiveDefinite, match="cov_resid_x is singular"):
                request(RegWeights(lambda1=1.0))
    br = param_effect_closed(
        st.k_ls, st.a_ls, np.eye(st.n), st, RegWeights(lambda2=1.0, lambda3=1.0)
    )
    assert br.h1 == 0.0
    assert br.h3 > 0.0


def test_singular_covariance_factors_raise_singular_covariance():
    # A noiseless record: the residual covariance is zero, caught by the
    # stacked data's rank flag.
    with pytest.raises(SingularCovariance, match="cov_resid_x is singular"):
        compute_stats(noiseless_dataset(3)).cov_resid_x_inv
    # Nearly parallel state rows pass the rank check, but their block's
    # singular values fail the squared-ratio test.
    gen = np.random.default_rng(5)
    base = gen.standard_normal(12)
    x0 = np.vstack([base, base + 1e-8 * gen.standard_normal(12)])
    d = Dataset(x0=x0, u0=gen.standard_normal((1, 12)), x1=gen.standard_normal((2, 12)))
    with pytest.raises(SingularCovariance, match="cov_x0 is singular"):
        compute_stats(d).cov_x0_inv


def test_stats_reject_unexciting_data():
    x0 = np.vstack([np.linspace(1.0, 2.0, 8), np.linspace(2.0, 4.0, 8)])
    d = Dataset(x0=x0, u0=x0[:1] * 2.0, x1=x0)  # input is a copy of state row
    with pytest.raises(ExcitationViolation):
        compute_stats(d)


def test_dataset_shape_checks_and_immutability():
    with pytest.raises(DimensionMismatch):
        Dataset(x0=np.ones((2, 5)), u0=np.ones((1, 4)), x1=np.ones((2, 5)))
    with pytest.raises(DimensionMismatch):
        Dataset(x0=np.ones((2, 5)), u0=np.ones((1, 5)), x1=np.ones((3, 5)))
    d = noisy_dataset(0)
    with pytest.raises(ValueError):
        d.x0[0, 0] = 1.0


# -- serialization ------------------------------------------------------------


def test_csv_round_trip_is_bit_exact(tmp_path):
    d = noisy_dataset(12)
    path = tmp_path / "data.csv"
    save_dataset(d, path)
    d2 = load_dataset(path)
    assert np.array_equal(d.x0, d2.x0)
    assert np.array_equal(d.u0, d2.u0)
    assert np.array_equal(d.x1, d2.x1)
    assert path.read_text().splitlines()[0] == "n,m,ell,2,1,30"


def test_csv_comments_and_blank_lines_ignored(tmp_path):
    d = noisy_dataset(1)
    path = tmp_path / "data.csv"
    save_dataset(d, path)
    lines = path.read_text().splitlines()
    lines.insert(0, "# produced for a unit test")
    lines.insert(3, "")
    lines.insert(5, "  # indented comment")
    path.write_text("\n".join(lines) + "\n")
    d2 = load_dataset(path)
    assert np.array_equal(d.x0, d2.x0)


def test_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_dataset(path)
    path.write_text("n,m,ell,2,1,30\n")
    with pytest.raises(ParseError):
        load_dataset(path)
    path.write_text("rows,cols,2,1\n1,2,3,4\n")
    with pytest.raises(ParseError):
        load_dataset(path)
    path.write_text("n,m,ell,2,one,30\n1,2,3,4\n")
    with pytest.raises(ParseError):
        load_dataset(path)


def test_csv_body_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,m,ell,1,1,2\n1,2,3\n4,5,6\n7,8,9\n")
    with pytest.raises(DimensionMismatch):
        load_dataset(path)  # three rows, header says two
    path.write_text("n,m,ell,1,1,2\n1,2,3\n4,5\n")
    with pytest.raises(DimensionMismatch):
        load_dataset(path)  # short row
    path.write_text("n,m,ell,1,1,2\n1,2,3\n4,x,6\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert "field 2" in str(err.value)
    for text in ("nan", "inf", "-inf"):
        path.write_text(f"n,m,ell,1,1,2\n1,2,3\n4,5,{text}\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert ":3: field 3" in str(err.value)


# -- simulation ---------------------------------------------------------------


def test_simulation_matches_hand_iteration():
    traj = simulate_closed_loop(np.zeros((2, 2)), [3.0, -1.0], 2)
    assert np.array_equal(traj[:, 1], np.zeros(2))
    traj = simulate_closed_loop(0.5 * np.eye(2), [1.0, 0.0], 3)
    assert np.allclose(traj.T, [[1, 0], [0.5, 0], [0.25, 0], [0.125, 0]])
    with pytest.raises(DimensionMismatch):
        simulate_closed_loop(np.eye(2), [1.0, 0.0], 0)
