"""Synthesis programs vs Riccati, Lyapunov, and cross-program oracles."""

import numpy as np
import pytest
import scipy.linalg

from ddlqr.datamodel import Dataset, compute_stats
from ddlqr.effects import RegWeights, effective_Q, param_effect_closed
from ddlqr.errors import (
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    SynthesisInfeasible,
)
from ddlqr.harness.experiments import ReferenceExperimentConfig, gen_reference_data
from ddlqr.matlin import h2norm_sq, solve_dare, solve_dlyap, spectral_radius
from ddlqr.synthesis import (
    PlantModel,
    build_baseline_covar_problem,
    build_baseline_gram_problem,
    build_model_lqr_problem,
    build_reduced_covar_problem,
    build_reduced_gram_problem,
    ce_lqr,
    evaluate_on_truth,
    model_lqr_sdp,
    synth_baseline_covar,
    synth_baseline_gram,
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
    # At the optimum the stability LMI is tight, so P is the Gramian of the
    # extracted closed loop and the objective decomposes into the lifted H2
    # cost plus the closed-form regularizer total.
    _, st = noisy(4)
    cases = [
        (synth_reduced_gram, RegWeights(lambda1=0.5, lambda2=2.0, lambda3=0.1)),
        (synth_reduced_gram, RegWeights(lambda1=10.0)),
        (synth_reduced_covar, covar_weights(lambda2=1.0, lambda3=0.5)),
    ]
    for fn, w in cases:
        sol = fn(st, Q2, R1, w)
        p_lyap = solve_dlyap(sol.A_cl)
        total = h2norm_sq(sol.A_cl, sol.K, Q2, R1)
        total += param_effect_closed(sol.K, sol.A_cl, p_lyap, st, w).total
        assert abs(sol.objective - total) <= 1e-6 * (1.0 + abs(total))


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
    ce = ce_lqr(st, Q2, R1)
    for sol in (
        synth_reduced_covar(st, Q2, R1, covar_weights()),
        synth_baseline_covar(st, Q2, R1, 0.0),
    ):
        assert np.linalg.norm(sol.K - ce.K) <= 1e-5
        assert np.linalg.norm(sol.A_cl - (st.a_ls + st.b_ls @ sol.K)) <= 1e-8


@pytest.mark.parametrize("lam3", [0.1, 1.0, 10.0])
def test_state_weight_equivalence(lam3):
    # A pure initial-state penalty folds into the state cost, so the program
    # reduces to certainty-equivalent LQR under the inflated weight.
    _, st = noisy(6)
    w = covar_weights(lambda3=lam3)
    sol = synth_reduced_covar(st, Q2, R1, w)
    q_eff = effective_Q(Q2, w, st.ell, st)
    k_opt, _ = solve_dare(st.a_ls, st.b_ls, q_eff, R1)
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


def test_problem_size_ell_independence():
    dims = []
    base_vars = []
    for ell in (30, 60, 90, 120):
        d, st = noisy(9, ell=ell)
        w = RegWeights(lambda1=1.0, lambda2=1.0, lambda3=1.0)
        pg, _ = build_reduced_gram_problem(st, Q2, R1, w)
        pc, _ = build_reduced_covar_problem(st, Q2, R1, covar_weights(1.0, 1.0))
        dims.append((pg.num_vars, tuple(pg.block_dims()), pc.num_vars, tuple(pc.block_dims())))
        pb, lb = build_baseline_gram_problem(d, st, Q2, R1, 1.0, projected=False)
        base_vars.append(pb.num_vars)
        assert lb.slot("W").rows == ell
        assert max(pb.block_dims()) == ell + st.n
    assert len(set(dims)) == 1
    assert base_vars == sorted(base_vars) and len(set(base_vars)) == len(base_vars)


# -- solution invariants ------------------------------------------------------


def test_solution_invariants_across_programs():
    # No program carries a P - I block of its own; P >= I must follow from
    # the stability LMI. lambda1 = 0 frees the closed loop, so P = I there.
    d, st = noisy(4)
    w = RegWeights(lambda1=0.3, lambda2=1.0, lambda3=0.1)
    w_free = RegWeights(lambda2=1.0, lambda3=0.1)
    runs = [
        (model_lqr_sdp(ref_plant()), build_model_lqr_problem(ref_plant())),
        (synth_reduced_gram(st, Q2, R1, w), build_reduced_gram_problem(st, Q2, R1, w)),
        (
            synth_reduced_gram(st, Q2, R1, w_free),
            build_reduced_gram_problem(st, Q2, R1, w_free),
        ),
        (
            synth_reduced_covar(st, Q2, R1, covar_weights(1.0, 0.1)),
            build_reduced_covar_problem(st, Q2, R1, covar_weights(1.0, 0.1)),
        ),
        (
            synth_baseline_gram(d, st, Q2, R1, 0.5, projected=True),
            build_baseline_gram_problem(d, st, Q2, R1, 0.5, projected=True),
        ),
        (
            synth_baseline_covar(st, Q2, R1, 0.5),
            build_baseline_covar_problem(st, Q2, R1, 0.5),
        ),
    ]
    for sol, (prob, lay) in runs:
        assert sol.status == "Optimal"
        assert float(np.min(np.linalg.eigvalsh(sol.P - np.eye(st.n)))) >= -1e-6
        assert spectral_radius(sol.A_cl) < 1.0
        if "Kt" in lay.names():
            kt = lay.extract("Kt", sol.solver.y)
            assert np.linalg.norm(sol.K @ sol.P - kt) <= 1e-8 * (1.0 + np.linalg.norm(kt))
        for blk in prob.evaluate_blocks(sol.solver.y):
            scale = 1.0 + float(np.abs(blk).max())
            assert float(np.min(np.linalg.eigvalsh(blk))) >= -1e-6 * scale


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


# -- certainty equivalence and evaluation -------------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ce_requires_stabilizable_estimates():
    st = nonstabilizable_stats()
    with pytest.raises(NoConvergence):
        ce_lqr(st, Q2, np.eye(1))


def test_reduced_covar_infeasible_on_nonstabilizable_estimates():
    st = nonstabilizable_stats()
    with pytest.raises(SynthesisInfeasible) as exc:
        synth_reduced_covar(st, Q2, np.eye(1), covar_weights())
    assert exc.value.program_id == "reduced-covar"
    assert exc.value.status == "Infeasible"


def test_evaluate_on_truth_self_consistency():
    pm = ref_plant()
    sol = model_lqr_sdp(pm)
    ev = evaluate_on_truth(sol, pm)
    assert ev.stable
    assert ev.rho < 1.0
    assert abs(ev.h2_sq - sol.objective) <= 1e-6 * (1.0 + abs(sol.objective))


def test_evaluate_on_truth_zero_gain():
    pm = ref_plant()
    sol = ce_lqr(compute_stats(gen_reference_data(ReferenceExperimentConfig(seed=0))), Q2, R1)
    zero = type(sol)(
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
    sol = ce_lqr(compute_stats(gen_reference_data(ReferenceExperimentConfig(seed=0))), Q2, R1)
    bad = type(sol)(
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
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    cfg = ReferenceExperimentConfig(
        a=0.9 * M / spectral_radius(M),
        b=rng.standard_normal((n, m)),
        q=np.eye(n),
        r=np.eye(m),
        ell=5 * (n + m),
        v=np.zeros(n),
        offset_scale=0.0,
        k_expl=np.zeros((m, n)),
        seed=seed,
    )
    return compute_stats(gen_reference_data(cfg))


@pytest.mark.parametrize("seed,n,m", [(1, 4, 2), (2, 4, 2), (3, 6, 3), (4, 6, 3), (5, 10, 4)])
def test_reduced_programs_match_riccati_on_random_plants(seed, n, m):
    st = random_plant_stats(seed, n, m)
    Q, R = np.eye(n), np.eye(m)
    gram = synth_reduced_gram(st, Q, R, RegWeights(lambda1=1.0, lambda2=1.0, lambda3=1.0))
    K_ref = riccati_gain(st, Q, R, 1.0, 1.0, 1.0, gram=True)
    assert np.linalg.norm(gram.K - K_ref) <= 1e-5 * max(1.0, np.linalg.norm(K_ref))
    covar = synth_reduced_covar(st, Q, R, covar_weights(lambda2=1.0, lambda3=1.0))
    K_ref = riccati_gain(st, Q, R, 0.0, 1.0, 1.0, gram=False)
    assert np.linalg.norm(covar.K - K_ref) <= 1e-5 * max(1.0, np.linalg.norm(K_ref))


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
