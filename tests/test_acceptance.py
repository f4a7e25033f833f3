"""Acceptance gate: pinned tolerances and wall-clock budgets, one check per test."""

import time

import numpy as np

from ddlqr.datamodel import compute_stats
from ddlqr.effects import RegWeights, param_effect_closed, param_effect_oracle
from ddlqr.harness import cli, ls_gain_stabilizes, reduced_case, run_sweep
from ddlqr.harness.experiments import ReferenceExperimentConfig, gen_reference_data
from ddlqr.harness.sweep import bench_scaling, deviation_grid
from ddlqr.matlin import pinv, solve_dare, solve_dlyap, spectral_radius, sym
from ddlqr.synthesis import (
    PlantModel,
    build_baseline_covar_problem,
    build_baseline_gram_problem,
    build_model_lqr_problem,
    build_reduced_covar_problem,
    build_reduced_gram_problem,
    model_lqr_sdp,
    reduced_sdp,
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


def rand_spd(rng, n):
    Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return sym(Qm @ np.diag(rng.uniform(0.5, 4.0, n)) @ Qm.T)


def rand_stable(rng, n, radius=0.7):
    A = rng.standard_normal((n, n))
    return A * (radius / max(spectral_radius(A), 1e-12))


def weights_for(kind, lam):
    if kind == "full_gram":
        return RegWeights(lambda1=lam, lambda2=lam, lambda3=lam)
    if kind == "projected_gram":
        return RegWeights(lambda1=lam)
    return RegWeights(lambda2=lam, lambda3=lam, parameterization="covariance")


def test_c01_effect_closed_forms_match_oracles():
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_res = 0.0
    for t in range(100):
        seed = 5000 + t
        d, st = noisy(seed)
        assert st.rank_report.pe_holds and st.rank_report.full_rank_holds
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((st.m, st.n))
        A_cl = rng.standard_normal((st.n, st.n))
        P = rand_spd(rng, st.n)
        lam = float(10.0 ** rng.uniform(-2.0, 2.0))
        for kind in ("full_gram", "projected_gram", "covariance"):
            closed = param_effect_closed(K, A_cl, P, st, weights_for(kind, lam))
            cert = param_effect_oracle(K, A_cl, P, d, lam, kind)
            rel = abs(closed.total - cert.objective) / max(abs(cert.objective), 1e-12)
            worst_rel = max(worst_rel, rel)
            worst_res = max(worst_res, cert.constraint_residual)
    elapsed = time.perf_counter() - t0
    print(f"c01 closed forms vs oracles: worst rel {worst_rel:.3e}, "
          f"worst oracle residual {worst_res:.3e}, {elapsed:.2f}s (budget 10s)")
    assert worst_rel <= 1e-8
    assert worst_res <= 1e-8
    assert elapsed <= 10.0


def test_c02_zero_weight_gain_vanishes():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in (0, 11):
        _, st = noisy(seed)
        sol = synth_reduced_gram(st, Q2, R1, RegWeights())
        assert sol.status == "Optimal"
        worst = max(worst, float(np.linalg.norm(sol.K)))
    elapsed = time.perf_counter() - t0
    print(f"c02 zero-weight gain: worst |K| {worst:.3e}, {elapsed:.2f}s (budget 1s)")
    assert worst <= 1e-6
    assert elapsed <= 1.0


def test_c03_zero_weight_covariance_equals_certainty_equivalence():
    t0 = time.perf_counter()
    _, st = noisy(0)
    k_ce, _ = solve_dare(st.a_ls, st.b_ls, Q2, R1)
    sols = [
        synth_reduced_covar(st, Q2, R1, RegWeights(parameterization="covariance")),
        synth_reduced_covar(
            st, Q2, R1, RegWeights(lambda2=1.0, lambda3=0.2, parameterization="covariance")
        ),
        synth_reduced_covar(
            st, Q2, R1, RegWeights(lambda3=3.0, parameterization="covariance")
        ),
        synth_baseline_covar(st, Q2, R1, 0.0),
        synth_baseline_covar(st, Q2, R1, 1.0),
    ]
    gap_ce = float(np.linalg.norm(sols[0].K - k_ce))
    # The model SDP on the least-squares estimates: a check independent of solve_dare.
    k_sdp = model_lqr_sdp(PlantModel(A=st.a_ls, B=st.b_ls, Q=Q2, R=R1)).K
    gap_sdp = float(np.linalg.norm(sols[0].K - k_sdp))
    worst_id = max(
        float(np.linalg.norm(s.A_cl - (st.a_ls + st.b_ls @ s.K))) for s in sols
    )
    elapsed = time.perf_counter() - t0
    print(f"c03 certainty equivalence: |K - K_ce| {gap_ce:.3e}, |K - K_sdp| {gap_sdp:.3e}, "
          f"worst closed-loop identity {worst_id:.3e}, {elapsed:.2f}s (budget 2s)")
    assert gap_ce <= 1e-5
    assert gap_sdp <= 1e-5
    assert worst_id <= 1e-8
    assert elapsed <= 2.0


def test_c04_noiseless_data_recovers_true_lqr():
    t0 = time.perf_counter()
    cfg = ReferenceExperimentConfig(noise_std=0.0)
    d = gen_reference_data(cfg)
    st = compute_stats(d)
    k_true, _ = solve_dare(cfg.a, cfg.b, cfg.q, cfg.r)
    worst_data = 0.0
    for projected in (False, True):
        sol = synth_baseline_gram(d, st, cfg.q, cfg.r, 1e-8, projected=projected)
        worst_data = max(worst_data, float(np.linalg.norm(sol.K - k_true)))
    sol_model = model_lqr_sdp(ref_plant())
    gap_model = float(np.linalg.norm(sol_model.K - k_true))
    elapsed = time.perf_counter() - t0
    print(f"c04 noiseless recovery: worst data-driven gap {worst_data:.3e}, "
          f"model program gap {gap_model:.3e}, {elapsed:.2f}s (budget 5s)")
    assert worst_data <= 1e-4
    assert gap_model <= 1e-5
    assert elapsed <= 5.0


def test_c05_reduced_and_baseline_programs_agree():
    t0 = time.perf_counter()
    d, st = noisy(5)
    worst_k = 0.0
    worst_obj = 0.0
    for lam in (1e-3, 1e-1, 1e1, 1e3):
        pairs = [
            (
                synth_reduced_gram(
                    st, Q2, R1, RegWeights(lambda1=lam, lambda2=lam, lambda3=lam)
                ),
                synth_baseline_gram(d, st, Q2, R1, lam, projected=False),
            ),
            (
                synth_reduced_gram(st, Q2, R1, RegWeights(lambda1=lam)),
                synth_baseline_gram(d, st, Q2, R1, lam, projected=True),
            ),
            (
                synth_reduced_covar(
                    st, Q2, R1,
                    RegWeights(lambda2=lam, lambda3=lam, parameterization="covariance"),
                ),
                synth_baseline_covar(st, Q2, R1, lam),
            ),
        ]
        for red, base in pairs:
            worst_k = max(worst_k, float(np.linalg.norm(red.K - base.K)))
            worst_obj = max(
                worst_obj,
                abs(red.objective - base.objective) / (1.0 + abs(base.objective)),
            )
    elapsed = time.perf_counter() - t0
    print(f"c05 reduced vs baseline: worst |dK| {worst_k:.3e}, "
          f"worst rel objective gap {worst_obj:.3e}, {elapsed:.2f}s (budget 60s)")
    assert worst_k <= 1e-5
    assert worst_obj <= 1e-5
    assert elapsed <= 60.0


def test_c06_deviation_sweep_separates_effect_one():
    t0 = time.perf_counter()
    cfg = ReferenceExperimentConfig(seed=42)
    st = compute_stats(gen_reference_data(cfg))
    cases = [reduced_case(lbl) for lbl in ("{1}", "{1,2}", "{1,3}", "{1,2,3}")]
    rows = run_sweep(st, cases, deviation_grid(41), Q=cfg.q, R=cfg.r)
    assert len(rows) == 4 * 41
    end = {}
    for lbl in ("{1}", "{1,2}", "{1,3}", "{1,2,3}"):
        row = [r for r in rows if r.case_label == lbl][-1]
        assert row.status == "Optimal"
        end[lbl] = row.deviation
    elapsed = time.perf_counter() - t0
    print(f"c06 sweep endpoints at lambda=1e6: "
          + ", ".join(f"{k} {v:.3e}" for k, v in end.items())
          + f", {elapsed:.2f}s (budget 120s)")
    assert end["{1}"] <= 1e-3
    assert end["{1,3}"] >= 10.0 * end["{1}"]
    assert end["{1,2,3}"] >= 10.0 * end["{1}"]
    assert elapsed <= 120.0


def test_c07_gain_path_endpoint_reaches_ls_gain():
    t0 = time.perf_counter()
    cfg = ReferenceExperimentConfig(seed=0)
    d = gen_reference_data(cfg)
    st = compute_stats(d)
    # The shrink-to-K_LS endpoint presumes K_LS stabilizes the estimates; the
    # draw is checked up front so a failure reports the condition, not a
    # mystery distance.
    assert ls_gain_stabilizes(st)
    cases = [
        reduced_case("{2}", parameterization="covariance"),
        reduced_case("{2,3}", parameterization="covariance"),
    ]
    rows = run_sweep(st, cases, [0.0, 1e10], Q=cfg.q, R=cfg.r)
    by_case = {lbl: [r for r in rows if r.case_label == lbl] for lbl in ("{2}", "{2,3}")}
    for lbl in ("{2}", "{2,3}"):
        assert [r.lam for r in by_case[lbl]] == [0.0, 1e10]
        assert all(r.status == "Optimal" for r in by_case[lbl])
    # Both cases coincide at lambda = 0 (same unregularized program).
    assert abs(by_case["{2}"][0].dist_to_kls - by_case["{2,3}"][0].dist_to_kls) <= 1e-9
    d2 = by_case["{2}"][1].dist_to_kls
    d23 = by_case["{2,3}"][1].dist_to_kls
    elapsed = time.perf_counter() - t0
    print(f"c07 gain-path endpoints at lambda=1e10: "
          f"{{2}} {d2:.3e}, {{2,3}} {d23:.3e}, {elapsed:.2f}s (budget 60s)")
    assert d2 <= 1e-3
    assert d23 > d2
    assert elapsed <= 60.0


def test_c08_effect_three_matches_shifted_state_weight():
    t0 = time.perf_counter()
    _, st = noisy(0)
    worst = 0.0
    for lam3 in (0.1, 1.0, 10.0):
        w = RegWeights(lambda3=lam3, parameterization="covariance")
        sol = reduced_sdp(st, Q2, R1, w)
        q_shift = Q2 + lam3 * np.linalg.inv(st.cov_x0)
        k_shift, _ = solve_dare(st.a_ls, st.b_ls, sym(q_shift), R1)
        worst = max(worst, float(np.linalg.norm(sol.K - k_shift)))
    elapsed = time.perf_counter() - t0
    print(f"c08 shifted state weight: worst |dK| {worst:.3e}, "
          f"{elapsed:.2f}s (budget 5s)")
    assert worst <= 1e-5
    assert elapsed <= 5.0


def test_c09_reduced_program_cost_is_size_invariant():
    t0 = time.perf_counter()
    ells = [30, 60, 90, 120]
    rows = bench_scaling(ells, repeats=3)
    by_label = {}
    for r in rows:
        by_label.setdefault(r.program_label, []).append(r)
    lines = []
    for lbl in ("{1,2,3}", "{1}"):
        group = sorted(by_label[lbl], key=lambda r: r.ell)
        # The iteration count is deterministic but not constant in ell
        # ({1,2,3} takes 20/16/17/17), so the time compared is per
        # iteration, with the iterations of the timed solves.
        iters = [r.iters for r in group]
        # Fastest of the repeats per length: a slow phase of a shared host
        # can double one mean of 3 repeats, but rarely every repeat.
        per_iter = [r.min_s / it for r, it in zip(group, iters)]
        ratio = max(per_iter) / min(per_iter)
        dims = {(r.num_vars, r.max_block_dim, r.schur_order) for r in group}
        lines.append(f"{lbl} per-iteration ratio {ratio:.2f} (iterations {iters})")
        assert ratio <= 2.0
        # Sizes that no host changes: the reduced program's Schur order too.
        assert len(dims) == 1
    n = ReferenceExperimentConfig().a.shape[0]
    for lbl in ("baseline-gram", "baseline-gram-proj"):
        group = sorted(by_label[lbl], key=lambda r: r.ell)
        means = [r.mean_s for r in group]
        assert all(a < b for a, b in zip(means, means[1:]))
        # The baseline solves over Z's (ell - n) n kernel coordinates and P.
        assert all(r.schur_order == (r.ell - n) * n + n * (n + 1) // 2 for r in group)
        lines.append(f"{lbl} times " + "/".join(f"{m:.3f}" for m in means))
    elapsed = time.perf_counter() - t0
    print(f"c09 scaling: " + ", ".join(lines) + f", {elapsed:.1f}s (budget 600s)")
    assert elapsed <= 600.0


def test_c10_numerical_kernels_and_feasibility_certificates():
    t0 = time.perf_counter()
    worst_kernel = 0.0
    for t in range(25):
        rng = np.random.default_rng(9000 + t)
        M = rng.standard_normal((3, 7))
        Mp = pinv(M)
        worst_kernel = max(
            worst_kernel,
            float(np.linalg.norm(M @ Mp @ M - M)),
            float(np.linalg.norm(Mp @ M @ Mp - Mp)),
            float(np.linalg.norm((M @ Mp).T - M @ Mp)),
            float(np.linalg.norm((Mp @ M).T - Mp @ M)),
        )
        A_cl = rand_stable(rng, 3)
        P = solve_dlyap(A_cl)
        worst_kernel = max(
            worst_kernel, float(np.linalg.norm(P - A_cl @ P @ A_cl.T - np.eye(3)))
        )
        A = rand_stable(rng, 3, radius=0.9)
        B = rng.standard_normal((3, 2))
        Qr = rand_spd(rng, 3)
        Rr = rand_spd(rng, 2)
        K, S = solve_dare(A, B, Qr, Rr)
        BtS = B.T @ S
        resid = A.T @ S @ A - (BtS @ A).T @ np.linalg.solve(Rr + BtS @ B, BtS @ A) + Qr - S
        worst_kernel = max(worst_kernel, float(np.linalg.norm(resid)))

    min_eig = np.inf
    worst_gramian = 0.0
    w_gram = RegWeights(lambda1=0.5, lambda2=1.0, lambda3=0.2)
    w_covar = RegWeights(lambda2=1.0, lambda3=0.2, parameterization="covariance")
    for seed in range(5):
        d, st = noisy(seed)
        riccati = (synth_reduced_gram(st, Q2, R1, w_gram), synth_reduced_covar(st, Q2, R1, w_covar))
        for sol in riccati:
            A_cl, P = sol.A_cl, sol.P
            assert float(np.min(np.linalg.eigvalsh(P - np.eye(st.n)))) >= -1e-9
            assert spectral_radius(A_cl) < 1.0
            worst_gramian = max(
                worst_gramian, float(np.linalg.norm(A_cl @ P @ A_cl.T + np.eye(st.n) - P))
            )
        solved = [
            (reduced_sdp(st, Q2, R1, w_gram),
             build_reduced_gram_problem(st, Q2, R1, w_gram)[0]),
            (reduced_sdp(st, Q2, R1, w_covar),
             build_reduced_covar_problem(st, Q2, R1, w_covar)[0]),
            (synth_baseline_gram(d, st, Q2, R1, 1.0, projected=False),
             build_baseline_gram_problem(d, st, Q2, R1, 1.0, projected=False)[0]),
            (synth_baseline_covar(st, Q2, R1, 1.0),
             build_baseline_covar_problem(st, Q2, R1, 1.0)[0]),
        ]
        for sol, prob in solved:
            for blk in prob.evaluate_blocks(sol.solver.y):
                min_eig = min(min_eig, float(np.linalg.eigvalsh(blk)[0]))
    pm = ref_plant()
    sol_model = model_lqr_sdp(pm)
    for blk in build_model_lqr_problem(pm)[0].evaluate_blocks(sol_model.solver.y):
        min_eig = min(min_eig, float(np.linalg.eigvalsh(blk)[0]))

    elapsed = time.perf_counter() - t0
    print(f"c10 kernels: worst residual {worst_kernel:.3e}, "
          f"min certificate eigenvalue {min_eig:.3e}, "
          f"worst Riccati Gramian residual {worst_gramian:.3e}, {elapsed:.2f}s (budget 10s)")
    assert worst_kernel <= 1e-9
    assert min_eig >= -1e-6
    assert worst_gramian <= 1e-9
    assert elapsed <= 10.0


def test_c11_verify_artifacts_are_deterministic(tmp_path):
    t0 = time.perf_counter()
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out in dirs:
        assert cli.main(["verify", "--seed", "0", "--out", str(out)]) == 0
    names = [sorted(p.name for p in out.iterdir()) for out in dirs]
    assert names[0] == names[1]
    csvs = [n for n in names[0] if n.endswith(".csv")]
    assert csvs
    for name in csvs:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    elapsed = time.perf_counter() - t0
    print(f"c11 determinism: {len(csvs)} csv artifacts byte-identical, {elapsed:.2f}s")
