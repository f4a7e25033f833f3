"""Synthesis programs vs Riccati, Lyapunov, and cross-program oracles."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg

from ddlqr.conic import svec
from ddlqr.datamodel import Dataset, compute_stats
from ddlqr.effects import RegWeights, eval_reg_covar, eval_reg_gram, param_effect_closed
from ddlqr.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    SynthesisInfeasible,
)
from ddlqr.harness.experiments import ReferenceExperimentConfig, gen_reference_data
from ddlqr.harness.sweep import deviation_grid, gain_path_grid, reduced_case, run_sweep
from ddlqr.matlin import h2norm_sq, solve_dare, solve_dlyap, spectral_radius
from ddlqr.synthesis import (
    _BASELINES,
    LqrSolution,
    PlantModel,
    _synth_baseline,
    baseline_y_map,
    build_baseline_covar_problem,
    build_baseline_gram_problem,
    build_model_lqr_problem,
    build_reduced_covar_problem,
    build_reduced_gram_problem,
    evaluate_on_truth,
    model_lqr_sdp,
    reduced_sdp,
    synth_baseline_covar,
    synth_baseline_gram,
    synth_reduced,
    synth_reduced_covar,
    synth_reduced_gram,
)

Q2 = np.eye(2)
R1 = np.array([[0.1]])


def ref_plant():
    cfg = ReferenceExperimentConfig()
    return PlantModel(A=cfg.a, B=cfg.b, Q=cfg.q, R=cfg.r)


def noisy(seed, ell=30):
    d = gen_reference_data(ReferenceExperimentConfig(seed=seed, ell=ell))
    return d, compute_stats(d)


def noiseless(seed, ell=30):
    d = gen_reference_data(ReferenceExperimentConfig(seed=seed, ell=ell, noise_std=0.0))
    return d, compute_stats(d)


def nonstabilizable_stats():
    # x1 = 2 x0 exactly, so the LS fit returns a_ls = 2I, b_ls = 0.
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((2, 12))
    u0 = rng.standard_normal((1, 12))
    d = Dataset(x0=x0, u0=u0, x1=2.0 * x0)
    return compute_stats(d)


def covar_weights(lambda2=0.0, lambda3=0.0):
    return RegWeights(lambda2=lambda2, lambda3=lambda3, parameterization="covariance")


# -- plant model --------------------------------------------------------------


def test_plant_model_validation():
    with pytest.raises(DimensionMismatch):
        PlantModel(A=np.zeros((2, 3)), B=np.zeros((2, 1)), Q=Q2, R=R1)
    with pytest.raises(DimensionMismatch):
        PlantModel(A=np.zeros((2, 2)), B=np.zeros((3, 1)), Q=Q2, R=R1)
    with pytest.raises(DimensionMismatch):
        PlantModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), Q=np.eye(3), R=R1)
    with pytest.raises(NotPositiveDefinite):
        PlantModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), Q=np.diag([1.0, 0.0]), R=R1)
    with pytest.raises(NotPositiveDefinite):
        PlantModel(A=np.zeros((2, 2)), B=np.zeros((2, 1)), Q=Q2, R=np.array([[-1.0]]))
    pm = ref_plant()
    assert pm.n == 2 and pm.m == 1


# -- model-based program ------------------------------------------------------


def test_model_trivial_plant():
    pm = PlantModel(A=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]), Q=Q2, R=np.eye(1))
    sol = model_lqr_sdp(pm)
    assert sol.status == "Optimal"
    assert sol.program_id == "model"
    assert np.linalg.norm(sol.K) <= 1e-7
    assert np.linalg.norm(sol.P - np.eye(2)) <= 1e-7
    assert abs(sol.objective - 2.0) <= 1e-7


def test_model_matches_riccati():
    pm = ref_plant()
    sol = model_lqr_sdp(pm)
    k_opt, _ = solve_dare(pm.A, pm.B, pm.Q, pm.R)
    assert np.linalg.norm(sol.K - k_opt) <= 1e-5
    assert abs(sol.objective - h2norm_sq(pm.A + pm.B @ k_opt, k_opt, pm.Q, pm.R)) <= 1e-5


def test_model_r_scaling_ordering():
    cfg = ReferenceExperimentConfig()
    lo = model_lqr_sdp(PlantModel(A=cfg.a, B=cfg.b, Q=cfg.q, R=cfg.r))
    hi = model_lqr_sdp(PlantModel(A=cfg.a, B=cfg.b, Q=cfg.q, R=10.0 * cfg.r))
    assert hi.objective > lo.objective
    assert np.linalg.norm(hi.K) < np.linalg.norm(lo.K)
    for sol, r_scale in ((lo, 1.0), (hi, 10.0)):
        k_opt, _ = solve_dare(cfg.a, cfg.b, cfg.q, r_scale * cfg.r)
        assert np.linalg.norm(sol.K - k_opt) <= 1e-5


def test_model_infeasible_plant():
    pm = PlantModel(A=2.0 * np.eye(2), B=np.zeros((2, 1)), Q=Q2, R=np.eye(1))
    with pytest.raises(SynthesisInfeasible) as exc:
        model_lqr_sdp(pm)
    assert exc.value.program_id == "model"


# -- reduced gram program -----------------------------------------------------


def test_reduced_gram_zero_weights_gain_vanishes():
    for seed in (0, 3, 11):
        _, st = noisy(seed)
        sol = synth_reduced_gram(st, Q2, R1, RegWeights())
        assert np.linalg.norm(sol.K) <= 1e-6
        assert float(np.min(np.linalg.eigvalsh(sol.P - np.eye(2)))) >= -1e-6


def test_reduced_parameterization_preconditions():
    _, st = noisy(0)
    with pytest.raises(ValueError):
        synth_reduced_gram(st, Q2, R1, covar_weights(lambda2=1.0))
    with pytest.raises(ValueError):
        synth_reduced_covar(st, Q2, R1, RegWeights(lambda2=1.0))


def test_objective_matches_closed_forms():
    # At the SDP's optimum the stability LMI is tight, so P is the Gramian of
    # the extracted closed loop and the objective decomposes into the lifted
    # H2 cost plus the closed-form regularizer total. The Riccati path prices
    # its objective by a separate formula, tested against the same sum in
    # test_riccati_objective_matches_closed_forms.
    _, st = noisy(4)
    cases = [
        RegWeights(lambda1=0.5, lambda2=2.0, lambda3=0.1),
        RegWeights(lambda1=10.0),
        covar_weights(lambda2=1.0, lambda3=0.5),
    ]
    for w in cases:
        sol = reduced_sdp(st, Q2, R1, w)
        p_lyap = solve_dlyap(sol.A_cl)
        total = h2norm_sq(sol.A_cl, sol.K, Q2, R1)
        total += param_effect_closed(sol.K, sol.A_cl, p_lyap, st, w).total
        assert abs(sol.objective - total) <= 1e-6 * (1.0 + abs(total))


def assert_objective_identity(sol, st, Q, R, w):
    """The Riccati objective, priced from the weight matrices as traces,
    against the lifted H2 cost plus the closed-form regularizer total."""
    total = h2norm_sq(sol.A_cl, sol.K, Q, R)
    total += param_effect_closed(sol.K, sol.A_cl, sol.P, st, w).total
    assert abs(sol.objective - total) <= 1e-12 * (1.0 + abs(total))


def test_riccati_objective_matches_closed_forms():
    for seed, param, labels, grid in (
        (42, "gram", ("{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}", "{1,2,3}"), deviation_grid),
        (0, "covariance", ("{2}", "{3}", "{2,3}"), gain_path_grid),
    ):
        _, st = noisy(seed)
        for label in labels:
            for lam in [*grid(), 1e10]:
                w = reduced_case(label, param).weights_at(float(lam))
                assert_objective_identity(synth_reduced(st, Q2, R1, w), st, Q2, R1, w)
    for seed, n, m in ((1, 4, 2), (3, 6, 3), (5, 10, 4), (6, 10, 1)):
        st = random_plant_stats(seed, n, m)
        Q, R = np.eye(n), np.eye(m)
        for lam in (1e-3, 1.0, 1e3):
            for synth, w in (
                (synth_reduced_gram, RegWeights(lambda1=lam, lambda2=lam, lambda3=lam)),
                (synth_reduced_covar, covar_weights(lambda2=lam, lambda3=lam)),
            ):
                assert_objective_identity(synth(st, Q, R, w), st, Q, R, w)


# -- cross-program equivalences -----------------------------------------------


@pytest.mark.parametrize("lam", [1e-1, 1e3])
def test_triangle_gram_vs_baseline(lam):
    d, st = noisy(5)
    red = synth_reduced_gram(st, Q2, R1, RegWeights(lambda1=lam, lambda2=lam, lambda3=lam))
    base = synth_baseline_gram(d, st, Q2, R1, lam, projected=False)
    assert np.linalg.norm(red.K - base.K) <= 1e-5
    assert abs(red.objective - base.objective) <= 1e-9 * (1.0 + abs(base.objective))


@pytest.mark.parametrize("lam", [1e-3, 1e1])
def test_triangle_projected_vs_baseline(lam):
    d, st = noisy(5)
    red = synth_reduced_gram(st, Q2, R1, RegWeights(lambda1=lam))
    base = synth_baseline_gram(d, st, Q2, R1, lam, projected=True)
    assert np.linalg.norm(red.K - base.K) <= 1e-5
    assert abs(red.objective - base.objective) <= 1e-9 * (1.0 + abs(base.objective))


@pytest.mark.parametrize("lam", [1e-2, 1e2])
def test_triangle_covar_vs_baseline(lam):
    _, st = noisy(5)
    red = synth_reduced_covar(st, Q2, R1, covar_weights(lambda2=lam, lambda3=lam))
    base = synth_baseline_covar(st, Q2, R1, lam)
    assert np.linalg.norm(red.K - base.K) <= 1e-5
    assert abs(red.objective - base.objective) <= 1e-9 * (1.0 + abs(base.objective))


def test_covar_zero_weights_match_certainty_equivalent():
    _, st = noisy(2)
    K_ce, _ = solve_dare(st.a_ls, st.b_ls, Q2, R1)
    for sol in (
        synth_reduced_covar(st, Q2, R1, covar_weights()),
        synth_baseline_covar(st, Q2, R1, 0.0),
    ):
        assert np.linalg.norm(sol.K - K_ce) <= 1e-5
        assert np.linalg.norm(sol.A_cl - (st.a_ls + st.b_ls @ sol.K)) <= 1e-8


@pytest.mark.parametrize("lam3", [0.1, 1.0, 10.0])
def test_state_weight_equivalence(lam3):
    # A pure initial-state penalty folds into the state cost, so the program
    # reduces to certainty-equivalent LQR under the inflated weight.
    _, st = noisy(6)
    w = covar_weights(lambda3=lam3)
    sol = synth_reduced_covar(st, Q2, R1, w)
    q_eff = Q2 + lam3 * np.linalg.inv(st.cov_x0)
    k_opt, _ = solve_dare(st.a_ls, st.b_ls, 0.5 * (q_eff + q_eff.T), R1)
    assert np.linalg.norm(sol.K - k_opt) <= 1e-5


def test_covar_closed_loop_identity():
    _, st = noisy(8)
    sols = [
        synth_reduced_covar(st, Q2, R1, covar_weights(lambda2=3.0)),
        synth_reduced_covar(st, Q2, R1, covar_weights(lambda2=0.2, lambda3=5.0)),
        synth_baseline_covar(st, Q2, R1, 1.0),
    ]
    for sol in sols:
        assert np.linalg.norm(sol.A_cl - (st.a_ls + st.b_ls @ sol.K)) <= 1e-8


# -- baseline programs --------------------------------------------------------


@pytest.mark.parametrize("projected", [False, True])
def test_noiseless_baseline_recovers_true_lqr(projected):
    d, st = noiseless(1)
    pm = ref_plant()
    sol = synth_baseline_gram(d, st, pm.Q, pm.R, 1e-8, projected=projected)
    k_opt, _ = solve_dare(pm.A, pm.B, pm.Q, pm.R)
    assert np.linalg.norm(sol.K - k_opt) <= 1e-4


@pytest.mark.parametrize("lam", [np.inf, np.nan, -1.0])
def test_baseline_weight_must_be_finite_and_non_negative(lam):
    d, st = noisy(0)
    calls = [
        lambda: build_baseline_gram_problem(d, st, Q2, R1, lam, projected=False),
        lambda: build_baseline_gram_problem(d, st, Q2, R1, lam, projected=True),
        lambda: synth_baseline_gram(d, st, Q2, R1, lam, projected=False),
        lambda: synth_baseline_gram(d, st, Q2, R1, lam, projected=True),
        lambda: build_baseline_covar_problem(st, Q2, R1, lam),
        lambda: synth_baseline_covar(st, Q2, R1, lam),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^lambda must be finite and non-negative"):
            call()


def test_problem_size_ell_independence():
    dims = []
    base_vars = []
    for ell in (30, 60, 90, 120):
        d, st = noisy(9, ell=ell)
        w = RegWeights(lambda1=1.0, lambda2=1.0, lambda3=1.0)
        pg, _ = build_reduced_gram_problem(st, Q2, R1, w)
        pc, _ = build_reduced_covar_problem(st, Q2, R1, covar_weights(1.0, 1.0))
        dims.append((pg.num_vars, tuple(pg.block_dims()), pc.num_vars, tuple(pc.block_dims())))
        for projected in (False, True):
            pb, lb = build_baseline_gram_problem(d, st, Q2, R1, 1.0, projected)
            # The Schur complement runs over P and Z, (ell - n) n + n(n+1)/2
            # ordinary variables; the regularizer adds one 1 x 1 row slack per
            # priced row of Z, and no block is larger than the stability LMI.
            ordinary = np.unique(np.concatenate([cb.lv.ravel() for cb in pb.compiled()]))
            assert ordinary.size == (ell - st.n) * st.n + st.n * (st.n + 1) // 2
            assert lb.slot("W").size == ell - st.n - (st.m if projected else 0)
            assert lb.slot("Z").rows == ell - st.n
            assert max(pb.block_dims()) == 2 * st.n
        base_vars.append(pb.num_vars)
    assert len(set(dims)) == 1
    assert base_vars == sorted(base_vars) and len(set(base_vars)) == len(base_vars)


def test_baseline_corner_blocks_store_their_border_columns_only():
    # A corner block stores columns dc.. of each coefficient, and each member
    # of the regularizer's stack lists only the variables it touches: P's
    # n (n + 1) / 2 entries and the n entries of its own row of Z.
    ell = 90
    d, st = noisy(9, ell=ell)
    n = st.n
    p, lay = build_baseline_gram_problem(d, st, Q2, R1, 1.0, projected=False)
    blocks = p.compiled()
    for cb in blocks[1:]:
        assert cb.F.shape == cb.lv.shape + (cb.dim, n)
    P, z, w = lay.slot("P"), lay.slot("Z"), lay.slot("W")
    assert z.size == (ell - n) * n
    own_row = z.offset + n * np.arange(ell - n)[:, None] + np.arange(n)
    P_vars = np.broadcast_to(P.offset + np.arange(P.size), (ell - n, P.size))
    assert (blocks[2].g, blocks[2].dim, blocks[2].dc) == (ell - n, n + 1, 1)
    assert np.array_equal(blocks[2].lv, np.hstack((P_vars, own_row)))
    assert blocks[2].corner == slice(w.offset, w.offset + ell - n)


def bordered(T, X, P):
    return np.block([[T, X], [X.T, P]])


def test_stacked_bound_pads_members_that_touch_fewer_variables():
    # No builder has a bound whose members touch different numbers of
    # variables. Here member j's border is row j of W Z with W sparse, so it
    # touches P and the rows of Z that W's row j names. Each member must list
    # the variables of the dense selection: those with a nonzero column
    # [dev_j; P] in order, padded with its first untouched ones, whose
    # coefficients are zero.
    from ddlqr.conic import LmiProblem
    from ddlqr.synthesis import SdpLayout, _h2_program

    rng = np.random.default_rng(3)
    n, rows, g = 2, 5, 6
    W = rng.standard_normal((g, rows)) * (rng.uniform(size=(g, rows)) < 0.5)
    W[0] = 0.0  # a member with P's variables alone

    def layout():
        lay = SdpLayout()
        lay.add_sym("P", n)
        lay.add_full("Z", rows, n)
        return lay

    def dev(Z):
        return (W @ Z)[..., None, :]

    lay = layout()
    p = _h2_program(
        lay, np.eye(n), lambda P, Z: 0.5 * P + Z[..., :n, :], lambda Z: Z[..., :1, :],
        np.eye(1), [("S", dev, np.eye(1))],
    )
    cb = p.compiled()[2]

    # The dense selection: every variable's full column [dev_j; P] per member.
    ref_lay = layout()
    var, U = ref_lay.units(ref_lay.names())
    X = dev(U["Z"]).swapaxes(0, 1)
    F = np.concatenate((X, np.broadcast_to(U["P"], (g,) + U["P"].shape)), axis=2)
    keep = np.any(F != 0.0, axis=(2, 3))
    assert len(set(keep.sum(1))) > 1
    pos = np.sort(np.argsort(~keep, axis=1, kind="stable")[:, : keep.sum(1).max()], axis=1)
    ref = LmiProblem(p.objective)
    ref.new_block(
        np.zeros((g, 1 + n, 1 + n)), var[pos], np.take_along_axis(F, pos[:, :, None, None], axis=1),
        corner=(1, lay.slot("S").offset),
    )
    assert np.array_equal(cb.lv, ref.compiled()[0].lv)
    assert np.array_equal(cb.F, ref.compiled()[0].F)
    assert np.any(np.all(cb.F == 0.0, axis=(2, 3)))  # the padding

    y = rng.standard_normal(p.num_vars)
    P = lay.extract("P", y)
    Z = lay.extract("Z", y)
    s = lay.slot("S")
    want = [bordered(w[None, None], x[None], P) for w, x in zip(y[s.offset : s.offset + g], W @ Z)]
    got = p.evaluate_blocks(y)[2:]
    assert len(got) == g
    assert all(np.abs(a - b).max() <= 1e-12 for a, b in zip(got, want))


def test_builders_state_the_paper_lmis():
    """Every block of every builder, at a random y, is the paper's LMI written
    out densely from the layout's values of the decision variables."""
    rng = np.random.default_rng(11)
    for d in (noisy(0)[0], random_plant_data(1, 4, 2)):
        st = compute_stats(d)
        n, m = st.n, st.m
        A, B, K_LS = st.a_ls, st.b_ls, st.k_ls
        Q, R = np.eye(n), np.eye(m)
        x0_pinv, N = baseline_y_map(d)

        def stab(P, X):
            return bordered(P - np.eye(n), X, P)

        def baseline_gram(rows):
            # The data equation X0 Y = P holds by construction of the Y map,
            # and the regularizer is one member [[w_j, z_j], [*, P]] per
            # priced row z_j of Z.
            def blocks(P, Z, L, W):
                Y = x0_pinv @ P + N @ Z
                assert np.abs(d.x0 @ Y - P).max() <= 1e-12 * (1.0 + np.abs(P).max())
                members = [bordered(w, z[None], P) for w, z in zip(W, Z[:rows])]
                return [stab(P, d.x1 @ Y), bordered(L, d.u0 @ Y, P), *members]

            return blocks

        programs = [
            (
                build_model_lqr_problem(PlantModel(A=A, B=B, Q=Q, R=R)),
                lambda P, Kt, L: [stab(P, A @ P + B @ Kt), bordered(L, Kt, P)],
            ),
            (
                build_reduced_gram_problem(st, Q, R, RegWeights(1.0, 1.0, 1.0)),
                lambda P, Kt, At, L, N, M: [
                    stab(P, At),
                    bordered(L, Kt, P),
                    bordered(N, Kt - K_LS @ P, P),
                    bordered(M, At - A @ P - B @ Kt, P),
                ],
            ),
            (
                build_reduced_covar_problem(st, Q, R, covar_weights(1.0, 1.0)),
                lambda P, Kt, L, N: [
                    stab(P, A @ P + B @ Kt), bordered(L, Kt, P), bordered(N, Kt - K_LS @ P, P)
                ],
            ),
            (
                build_baseline_covar_problem(st, Q, R, 1.0),
                lambda P, Kt, L, Z: [
                    stab(P, A @ P + B @ Kt), bordered(L, Kt, P), bordered(Z, np.vstack([P, Kt]), P)
                ],
            ),
        ]
        for projected, rows in ((False, d.ell - n), (True, d.ell - n - m)):
            programs.append(
                (build_baseline_gram_problem(d, st, Q, R, 1.0, projected), baseline_gram(rows))
            )
        for (p, lay), paper_blocks in programs:
            y = rng.standard_normal(p.num_vars)
            want = paper_blocks(**{name: lay.extract(name, y) for name in lay.names()})
            got = p.evaluate_blocks(y)
            assert len(got) == len(want)
            for G, W in zip(got, want):
                W = np.asarray(W)
                assert G.shape == W.shape
                assert np.abs(G - W).max() <= 1e-12 * (1.0 + np.abs(W).max())


# -- solution invariants ------------------------------------------------------


def test_solution_invariants_across_programs():
    # No program carries a P - I block of its own; P >= I must follow from
    # the stability LMI. lambda1 = 0 frees the closed loop, so P = I there.
    # K and A_cl are read off the borders of blocks 1 and 0; each program's
    # own formula in its decision variables must give the same matrices.
    # m != n on the random plant catches a swapped slice.
    w = RegWeights(lambda1=0.3, lambda2=1.0, lambda3=0.1)
    w_free = RegWeights(lambda2=1.0, lambda3=0.1)
    w_covar = covar_weights(1.0, 0.1)
    for d in (noisy(4)[0], random_plant_data(1, 4, 2)):
        st = compute_stats(d)
        n, m = st.n, st.m
        Q, R = np.eye(n), 0.1 * np.eye(m)
        A, B = st.a_ls, st.b_ls
        x0_pinv, N = baseline_y_map(d)

        def lifted_gain(v):
            return v["Kt"] @ np.linalg.inv(v["P"])

        def on_estimates(v):
            return lifted_gain(v), A + B @ lifted_gain(v)

        def free_loop(v):
            return lifted_gain(v), v["At"] @ np.linalg.inv(v["P"])

        def data_map(v):
            YPinv = (x0_pinv @ v["P"] + N @ v["Z"]) @ np.linalg.inv(v["P"])
            return d.u0 @ YPinv, d.x1 @ YPinv

        # The model program on the estimates, so its A + B K is A_LS + B_LS K.
        pm = PlantModel(A=A, B=B, Q=Q, R=R)
        runs = [
            (model_lqr_sdp(pm), build_model_lqr_problem(pm), on_estimates),
            (reduced_sdp(st, Q, R, w), build_reduced_gram_problem(st, Q, R, w), free_loop),
            (
                reduced_sdp(st, Q, R, w_free),
                build_reduced_gram_problem(st, Q, R, w_free),
                free_loop,
            ),
            (
                reduced_sdp(st, Q, R, w_covar),
                build_reduced_covar_problem(st, Q, R, w_covar),
                on_estimates,
            ),
            (
                synth_baseline_covar(st, Q, R, 0.5),
                build_baseline_covar_problem(st, Q, R, 0.5),
                on_estimates,
            ),
        ]
        for projected in (False, True):
            runs.append((
                synth_baseline_gram(d, st, Q, R, 0.5, projected=projected),
                build_baseline_gram_problem(d, st, Q, R, 0.5, projected=projected),
                data_map,
            ))
        for sol, (prob, lay), formula in runs:
            assert sol.status == "Optimal"
            assert float(np.min(np.linalg.eigvalsh(sol.P - np.eye(n)))) >= -1e-6
            assert spectral_radius(sol.A_cl) < 1.0
            y = sol.solver.y
            K, A_cl = formula({name: lay.extract(name, y) for name in lay.names()})
            for got, want in ((sol.K, K), (sol.A_cl, A_cl)):
                assert got.shape == want.shape, sol.program_id
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), sol.program_id
            for blk in prob.evaluate_blocks(y):
                scale = 1.0 + float(np.abs(blk).max())
                assert float(np.min(np.linalg.eigvalsh(blk))) >= -1e-6 * scale
        # The Riccati path carries no certificate: its P is the Gramian of its
        # closed loop, which is the SDP's optimal P.
        for sol in (
            synth_reduced_gram(st, Q, R, w),
            synth_reduced_gram(st, Q, R, w_free),
            synth_reduced_covar(st, Q, R, w_covar),
        ):
            assert sol.status == "Optimal" and sol.solver is None
            assert float(np.min(np.linalg.eigvalsh(sol.P - np.eye(n)))) >= -1e-9
            assert spectral_radius(sol.A_cl) < 1.0
            gramian = sol.A_cl @ sol.P @ sol.A_cl.T + np.eye(n) - sol.P
            assert np.linalg.norm(gramian) <= 1e-9


# -- regularization path endpoints --------------------------------------------


def test_model_mismatch_endpoint():
    # Heavy weight on the first effect pins the closed loop to the estimated
    # model; adding the other effects holds it away.
    _, st = noisy(42)
    lam = 1e6
    devs = {}
    for label, w in [
        ("1", RegWeights(lambda1=lam)),
        ("13", RegWeights(lambda1=lam, lambda3=lam)),
        ("123", RegWeights(lambda1=lam, lambda2=lam, lambda3=lam)),
    ]:
        sol = synth_reduced_gram(st, Q2, R1, w)
        devs[label] = float(np.linalg.norm(sol.A_cl - (st.a_ls + st.b_ls @ sol.K)))
    assert devs["1"] <= 1e-3
    assert devs["13"] >= 10.0 * devs["1"]
    assert devs["123"] >= 10.0 * devs["1"]


def test_gain_shrinkage_endpoint():
    # Seed 0 draws a realization where the LS gain stabilizes the LS
    # estimates, so the pure input-effect path can reach it.
    _, st = noisy(0)
    assert spectral_radius(st.a_ls + st.b_ls @ st.k_ls) < 1.0
    s2 = synth_reduced_covar(st, Q2, R1, covar_weights(lambda2=1e10))
    s23 = synth_reduced_covar(st, Q2, R1, covar_weights(lambda2=1e10, lambda3=1e10))
    d2 = float(np.linalg.norm(s2.K - st.k_ls))
    d23 = float(np.linalg.norm(s23.K - st.k_ls))
    assert d2 <= 1e-3
    assert d23 > d2


def test_gain_shrinkage_blocked_by_unstable_ls_gain():
    # On this draw the LS gain does not stabilize the estimates, so the
    # stability constraint keeps the path bounded away from it.
    _, st = noisy(42)
    assert spectral_radius(st.a_ls + st.b_ls @ st.k_ls) > 1.0
    s2 = synth_reduced_covar(st, Q2, R1, covar_weights(lambda2=1e10))
    assert float(np.linalg.norm(s2.K - st.k_ls)) > 1e-1


def test_gain_path_large_weight_matches_extended_precision():
    # At gain-path {2}, lambda = 4.47e9, |K - K_LS| is about 1e-7, so an error
    # of lambda * eps in the Riccati weights shows in dist_to_kls. The
    # reference prices the expanded cost x.T Q x + u.T R u +
    # (u - K_LS x).T du (u - K_LS x) in 50-digit decimal: Newton-Kleinman
    # steps from the program's gain, each a Lyapunov solve through its
    # n^2 x n^2 Kronecker system.
    cfg = ReferenceExperimentConfig(seed=0)
    st = compute_stats(gen_reference_data(cfg))
    lam = gain_path_grid()[-2]
    assert lam == pytest.approx(4.4668e9, rel=1e-4)
    sol = synth_reduced_covar(st, cfg.q, cfg.r, covar_weights(lambda2=lam))
    dist = float(np.linalg.norm(sol.K - st.k_ls))
    with localcontext() as ctx:
        ctx.prec = 50
        A, B, K_LS, Q, R, K = (_dec(M) for M in (st.a_ls, st.b_ls, st.k_ls, cfg.q, cfg.r, sol.K))
        du = _scale(Decimal(float(lam)), _dec(st.cov_resid_u_inv))
        Qe = _add(Q, _mm(_t(K_LS), du, K_LS))
        Re = _add(R, du)
        Ne = _scale(Decimal(-1), _mm(_t(K_LS), du))
        n = len(A)
        for _ in range(4):
            Acl = _t(_add(A, _mm(B, K)))
            Qk = _add(Qe, _mm(Ne, K), _mm(_t(K), _t(Ne)), _mm(_t(K), Re, K))
            kron = [[Decimal(i == j) - Acl[i // n][j // n] * Acl[i % n][j % n]
                     for j in range(n * n)] for i in range(n * n)]
            p = _solve(kron, [[v] for row in Qk for v in row])
            P = [[p[i * n + j][0] for j in range(n)] for i in range(n)]
            BtP = _mm(_t(B), P)
            K_next = _scale(Decimal(-1), _solve(_add(Re, _mm(BtP, B)), _add(_mm(BtP, A), _t(Ne))))
            step = max(abs(a - b) for ra, rb in zip(K, K_next) for a, b in zip(ra, rb))
            K = K_next
        assert step <= Decimal("1e-40")
        ref = sum((a - b) ** 2 for ra, rb in zip(K, K_LS) for a, b in zip(ra, rb)).sqrt()
        assert abs(Decimal(dist) - ref) <= Decimal("1e-8") * ref


def _dec(M):
    return [[Decimal(float(v)) for v in row] for row in np.atleast_2d(M)]


def _t(X):
    return [list(col) for col in zip(*X)]


def _mm(*Ms):
    out = Ms[0]
    for M in Ms[1:]:
        out = [[sum(a * b for a, b in zip(row, col)) for col in zip(*M)] for row in out]
    return out


def _add(*Ms):
    return [[sum(vals) for vals in zip(*rows)] for rows in zip(*Ms)]


def _scale(c, X):
    return [[c * v for v in row] for row in X]


def _solve(M, rhs):
    """X with M X = rhs by Gaussian elimination with partial pivoting."""
    n = len(M)
    aug = [list(M[i]) + list(rhs[i]) for i in range(n)]
    for c in range(n):
        piv = max(range(c, n), key=lambda i: abs(aug[i][c]))
        aug[c], aug[piv] = aug[piv], aug[c]
        for i in range(c + 1, n):
            f = aug[i][c] / aug[c][c]
            aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    X = [None] * n
    for i in reversed(range(n)):
        X[i] = [(aug[i][n + j] - sum(aug[i][k] * X[k][j] for k in range(i + 1, n))) / aug[i][i]
                for j in range(len(rhs[0]))]
    return X


# -- infeasible estimates and evaluation --------------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reduced_covar_infeasible_on_nonstabilizable_estimates():
    st = nonstabilizable_stats()
    with pytest.raises(SynthesisInfeasible) as exc:
        synth_reduced_covar(st, Q2, np.eye(1), covar_weights())
    assert exc.value.program_id == "reduced-covar"
    assert exc.value.status == "Infeasible"


def test_riccati_gain_with_no_gramian_is_infeasible():
    # A = diag(1 - 5e-10, 0.5) with B = [0; 1]: the first mode is stable but
    # out of the input's reach, so every gain leaves rho within 1e-9 of one,
    # where no Gramian exists. The record's residual lies in the kernel of
    # the regressors [x0; u0]: (A_LS, B_LS) = (A, B) to round-off, and the
    # residual covariance gram's lambda1 reads is invertible.
    rng = np.random.default_rng(0)
    A, B = np.diag([1.0 - 5e-10, 0.5]), np.array([[0.0], [1.0]])
    x0, u0 = rng.standard_normal((2, 40)), rng.standard_normal((1, 40))
    D = np.vstack([x0, u0])
    E = 1e-4 * rng.standard_normal((2, 40))
    E -= E @ np.linalg.pinv(D) @ D
    st = compute_stats(Dataset(x0=x0, u0=u0, x1=A @ x0 + B @ u0 + E))
    assert 1.0 - 1e-9 <= spectral_radius(st.a_ls) < 1.0
    # A gram deviation weight this large leaves the first mode where it is.
    cases = [
        (synth_reduced_covar, covar_weights(), "reduced-covar"),
        (synth_reduced_covar, covar_weights(lambda2=1.0, lambda3=1.0), "reduced-covar"),
        (synth_reduced_gram, RegWeights(lambda1=1e16), "reduced-gram"),
        (synth_reduced_gram, RegWeights(1e16, 1.0, 1.0), "reduced-gram"),
    ]
    for synth, w, program_id in cases:
        with pytest.raises(SynthesisInfeasible) as exc:
            synth(st, Q2, np.eye(1), w)
        assert (exc.value.program_id, exc.value.status) == (program_id, "Infeasible")
    cases = [reduced_case("{2}", "covariance"), reduced_case("{1}")]
    rows = run_sweep(st, cases, [1e16], Q2, np.eye(1))
    assert [r.status for r in rows] == ["Infeasible", "Infeasible"]


def test_evaluate_on_truth_self_consistency():
    pm = ref_plant()
    sol = model_lqr_sdp(pm)
    ev = evaluate_on_truth(sol, pm)
    assert ev.stable
    assert ev.rho < 1.0
    assert abs(ev.h2_sq - sol.objective) <= 1e-6 * (1.0 + abs(sol.objective))


def test_evaluate_on_truth_zero_gain():
    pm = ref_plant()
    zero = LqrSolution(
        K=np.zeros((1, 2)),
        P=np.eye(2),
        A_cl=pm.A,
        objective=0.0,
        status="Optimal",
        solver=None,
        program_id="probe",
    )
    ev = evaluate_on_truth(zero, pm)
    assert abs(ev.rho - 0.85) <= 1e-12
    assert abs(ev.h2_sq - float(np.trace(pm.Q @ solve_dlyap(pm.A)))) <= 1e-9


def test_evaluate_on_truth_unstable_gain():
    pm = ref_plant()
    bad = LqrSolution(
        K=np.array([[10.0, 0.0]]),
        P=np.eye(2),
        A_cl=pm.A + pm.B @ np.array([[10.0, 0.0]]),
        objective=0.0,
        status="Optimal",
        solver=None,
        program_id="probe",
    )
    ev = evaluate_on_truth(bad, pm)
    assert ev.rho >= 1.0
    assert ev.h2_sq is None
    assert not ev.stable


def test_evaluate_on_truth_gates_h2_on_its_own_rho():
    # 1 - 1e-9 <= rho < 1: stable, yet past the Gramian's threshold, so the
    # spectral radius computed once is reported and the H2 cost is withheld.
    A = np.diag([1.0 - 5e-10, 0.5])
    pm = PlantModel(A=A, B=np.array([[0.0], [1.0]]), Q=Q2, R=R1)
    K = np.zeros((1, 2))
    sol = LqrSolution(
        K=K, P=np.eye(2), A_cl=A, objective=0.0, status="Optimal", solver=None, program_id="probe"
    )
    ev = evaluate_on_truth(sol, pm)
    assert 1.0 - 1e-9 <= ev.rho < 1.0
    assert ev.rho == spectral_radius(A)
    assert ev.h2_sq is None


def test_evaluate_on_truth_h2_equals_public_kernel():
    pm = ref_plant()
    _, st = noisy(1)
    for w in (RegWeights(1.0, 1.0, 1.0, "gram"), RegWeights(0.0, 1.0, 1.0, "covariance")):
        sol = synth_reduced(st, pm.Q, pm.R, w)
        ev, K = evaluate_on_truth(sol, pm), sol.K
        assert ev.rho == spectral_radius(pm.A + pm.B @ K)
        assert ev.h2_sq == h2norm_sq(pm.A + pm.B @ K, K, pm.Q, pm.R)


# -- random plants against the Riccati form -------------------------------------


def riccati_gain(st, Q, R, l1, l2, l3, gram):
    """Optimal gain of a reduced program from its Riccati form: LQR on the
    least-squares model with the regulariser folded into the weights. Under
    the gram parameterisation the closed-loop deviation is a second input
    weighted by l1/ell * cov_resid_x^-1; the covariance form has no
    deviation input and no 1/ell scaling."""
    n = st.n
    s = 1.0 / st.ell if gram else 1.0
    iu = np.linalg.inv(st.cov_resid_u)
    q = Q + s * l3 * np.linalg.inv(st.cov_x0) + s * l2 * st.k_ls.T @ iu @ st.k_ls
    r = R + s * l2 * iu
    cross = -s * l2 * st.k_ls.T @ iu
    b = st.b_ls
    if gram:
        b = np.hstack([b, np.eye(n)])
        r = scipy.linalg.block_diag(r, s * l1 * np.linalg.inv(st.cov_resid_x))
        cross = np.hstack([cross, np.zeros((n, n))])
    q, r = 0.5 * (q + q.T), 0.5 * (r + r.T)
    X = scipy.linalg.solve_discrete_are(st.a_ls, b, q, r, s=cross)
    G = -np.linalg.solve(r + b.T @ X @ b, b.T @ X @ st.a_ls + cross.T)
    return G[: st.m]


def random_plant_stats(seed, n, m):
    return compute_stats(random_plant_data(seed, n, m))


def random_plant_data(seed, n, m, ell=None):
    """A record of length ell (default 5(n+m)) from a random plant with
    rho(A) = 0.9, no offset and no exploration gain."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    cfg = ReferenceExperimentConfig(
        a=0.9 * M / spectral_radius(M),
        b=rng.standard_normal((n, m)),
        q=np.eye(n),
        r=np.eye(m),
        ell=ell or 5 * (n + m),
        v=np.zeros(n),
        offset_scale=0.0,
        k_expl=np.zeros((m, n)),
        seed=seed,
    )
    return gen_reference_data(cfg)


@pytest.mark.parametrize("seed,n,m", [(1, 4, 2), (2, 4, 2), (3, 6, 3), (4, 6, 3), (5, 10, 4)])
def test_reduced_programs_match_riccati_on_random_plants(seed, n, m):
    st = random_plant_stats(seed, n, m)
    Q, R = np.eye(n), np.eye(m)
    for synth, w, l1, gram in (
        (synth_reduced_gram, RegWeights(lambda1=1.0, lambda2=1.0, lambda3=1.0), 1.0, True),
        (synth_reduced_covar, covar_weights(lambda2=1.0, lambda3=1.0), 0.0, False),
    ):
        sol = synth(st, Q, R, w)
        K_ref = riccati_gain(st, Q, R, l1, 1.0, 1.0, gram=gram)
        assert np.linalg.norm(sol.K - K_ref) <= 1e-5 * max(1.0, np.linalg.norm(K_ref))
        assert_matches_sdp(sol, reduced_sdp(st, Q, R, w))


def assert_matches_sdp(sol, sdp):
    """c05's bounds: 1e-5 on the gain (relative, floored at 1) and on the
    relative objective."""
    assert sdp.status == "Optimal"
    assert np.linalg.norm(sol.K - sdp.K) <= 1e-5 * max(1.0, np.linalg.norm(sdp.K))
    assert abs(sol.objective - sdp.objective) <= 1e-5 * (1.0 + abs(sdp.objective))


# A subsample of the paper's two sweep presets: the deviation path (data seed
# 42, gram) up to lambda = 1e6 and the gain path (data seed 0, covariance)
# from lambda = 0 to 1e10. The gram cases without the first effect, lambda = 0
# included, take the closed form for a free closed loop. Data seed 3's {2}
# points from lambda = 4e8 on are the grids' longest solves (42 to 44
# iterations): an exit that cuts a slow solve short fails them.
@pytest.mark.parametrize(
    "seed,param,labels,lams",
    [
        (42, "gram", ("{1}", "{1,2}", "{1,3}", "{1,2,3}"), (1e-4, 1.0, 1e6)),
        (42, "gram", ("{2}", "{3}", "{2,3}"), (0.0, 1e-2, 1e6)),
        (0, "covariance", ("{2}", "{3}", "{2,3}"), (0.0, 1e-4, 1.0, 1e6, 1e10)),
        (3, "covariance", ("{2}",), (4e8, 1e10)),
    ],
)
def test_reduced_programs_match_sdp_on_paper_sweeps(seed, param, labels, lams):
    _, st = noisy(seed)
    for label in labels:
        for lam in lams:
            w = reduced_case(label, param).weights_at(lam)
            assert_matches_sdp(synth_reduced(st, Q2, R1, w), reduced_sdp(st, Q2, R1, w))


# The records farthest from the reduced twin while the corner elimination
# went through an explicit inverse (seed 39610311 at ell = 30 missed the
# 1e-5 bound by 1.27e-5, seed 4 at ell = 30 by 1.03e-5), and the farthest
# ones with the whitened elimination.
@pytest.mark.parametrize(
    "seed,ell", [(39610311, 30), (4, 30), (4, 90), (23, 30), (7, 90), (39, 90)]
)
def test_baseline_covar_matches_reduced_twin(seed, ell):
    _, st = noisy(seed, ell)
    red = synth_reduced_covar(st, Q2, R1, covar_weights(lambda2=1.0, lambda3=1.0))
    base = synth_baseline_covar(st, Q2, R1, 1.0)
    assert np.linalg.norm(red.K - base.K) <= 1e-5


# Each baseline of the synthesis table against its reduced twin, solved by
# the Riccati path, on the random-plant recipe at a short record, ell = 3(n+m).
@pytest.mark.parametrize("lam", [1e-2, 1e2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_baselines_match_reduced_twins_on_random_plants(seed, lam):
    n, m = seed + 2, 2
    d = random_plant_data(seed, n, m, ell=3 * (n + m))
    st = compute_stats(d)
    Q, R = np.eye(n), np.eye(m)
    for program_id, (_, twin) in _BASELINES.items():
        base = _synth_baseline(program_id, d, st, Q, R, lam)
        assert base.program_id == program_id
        assert_matches_sdp(synth_reduced(st, Q, R, twin(lam)), base)


# The paper's identity at each baseline's optimum, on the records above: the
# regularizer evaluated directly on the baseline's variable equals the
# parametric effect of its reduced twin's weights at the same (K, A_cl, P),
# for every baseline of the synthesis table. The gram variable is
# G = Y P^-1, with Y = X0^+ P + N Z and Z read off the solution through the
# builder's layout.
@pytest.mark.parametrize("lam", [1e-2, 1e2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_baseline_regularizers_equal_parametric_effects_at_optimum(seed, lam):
    n, m = seed + 2, 2
    d = random_plant_data(seed, n, m, ell=3 * (n + m))
    st = compute_stats(d)
    Q, R = np.eye(n), np.eye(m)
    x0_pinv, N = baseline_y_map(d)
    gram_projected = {"baseline-gram": False, "baseline-gram-proj": True}
    for program_id, (build, twin) in _BASELINES.items():
        sol = _synth_baseline(program_id, d, st, Q, R, lam)
        if program_id == "baseline-covar":
            reg = eval_reg_covar(sol.K, sol.P, lam, st)
        else:
            _, lay = build(d, st, Q, R, lam)
            Y = x0_pinv @ sol.P + N @ lay.extract("Z", sol.solver.y)
            G = np.linalg.solve(sol.P, Y.T).T
            reg = eval_reg_gram(G, sol.P, lam, gram_projected[program_id], d)
        effect = param_effect_closed(sol.K, sol.A_cl, sol.P, st, twin(lam)).total
        assert abs(reg - effect) <= 1e-8 * max(1.0, abs(effect)), program_id


# The row-slack form of the gram regularizer is exact. At the least row
# slacks w_j = z_j P^-1 z_j^T, the builder's objective less tr(Q P), with the
# input-cost slack at 0, is the regularizer lam |Pi Y P^-1/2|_F^2 that
# eval_reg_gram prices on G = Y P^-1 itself, for random P > 0 and Z on random
# plants with m != n: the plain program through its folded
# lam tr((X0 X0^T)^-1 P) and every row of Z, the projected one through the
# rows that N's leading columns, a basis of ker [X0; U0], carry.
@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("seed,n,m", [(1, 2, 1), (2, 3, 2), (3, 4, 2)])
def test_baseline_row_slacks_price_the_gram_regularizer_exactly(seed, n, m, projected):
    d = random_plant_data(seed, n, m)
    st = compute_stats(d)
    lam = 0.7
    p, lay = build_baseline_gram_problem(d, st, np.eye(n), np.eye(m), lam, projected)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    P = A @ A.T + 0.1 * np.eye(n)
    Z = rng.standard_normal((d.ell - n, n))
    w_slot = lay.slot("W")
    Zw = Z[: w_slot.size]
    y = np.zeros(p.num_vars)
    least = np.sum(Zw @ np.linalg.inv(P) * Zw, axis=1)
    for name, value in (("P", svec(P)), ("Z", Z.ravel()), ("W", least)):
        s = lay.slot(name)
        y[s.offset : s.offset + s.size] = value
    reg = float(p.objective @ y) - float(np.trace(P))
    x0_pinv, N = baseline_y_map(d)
    G = np.linalg.solve(P, (x0_pinv @ P + N @ Z).T).T
    ref = eval_reg_gram(G, P, lam, projected, d)
    assert abs(reg - ref) <= 1e-10 * abs(ref)


# The baselines end at the convergence test, through the final dual
# correction, not on a snapshot after a failed factorization: 11 of these 12
# solves do (1 of 12 without the correction). A solve that does reports both
# residuals and the relative gap within the solver's tolerance.
def test_baselines_end_at_the_convergence_test():
    from ddlqr.conic.solver import _TOL

    converged = 0
    for seed in (1, 2, 3, 4):
        d, st = noisy(seed)
        for sol in (
            synth_baseline_gram(d, st, Q2, R1, 1.0, projected=False),
            synth_baseline_gram(d, st, Q2, R1, 1.0, projected=True),
            synth_baseline_covar(st, Q2, R1, 1.0),
        ):
            s = sol.solver
            assert s.optimal
            if s.message == "":
                converged += 1
                relgap = s.gap / (1.0 + abs(s.objective))
                assert max(s.primal_res, s.dual_res, relgap) <= _TOL, sol.program_id
    assert converged >= 10


@pytest.mark.parametrize("n", range(2, 11))
def test_model_sdp_matches_riccati_on_random_plants(n):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    m = 1 + n // 4
    pm = PlantModel(
        A=0.9 * M / spectral_radius(M), B=rng.standard_normal((n, m)), Q=np.eye(n), R=np.eye(m)
    )
    sdp = model_lqr_sdp(pm)
    K, _ = solve_dare(pm.A, pm.B, pm.Q, pm.R)
    cost = h2norm_sq(pm.A + pm.B @ K, K, pm.Q, pm.R)
    assert sdp.status == "Optimal"
    assert np.linalg.norm(K - sdp.K) <= 1e-5 * max(1.0, np.linalg.norm(sdp.K))
    assert abs(cost - sdp.objective) <= 1e-5 * (1.0 + abs(sdp.objective))
