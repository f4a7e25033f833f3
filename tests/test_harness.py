"""Sweep engine, emitters, self-check pipeline, and CLI surface."""

import csv
import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ddlqr import synthesis
from ddlqr.datamodel import Dataset, compute_stats, save_dataset
from ddlqr.effects import RegWeights
from ddlqr.errors import DimensionMismatch, NumericalError, SynthesisInfeasible, UnstableMatrix
from ddlqr.harness import sweep
from ddlqr.harness.cli import main
from ddlqr.harness.emit import (
    emit_bench_csv,
    emit_csv,
    emit_solution_json,
    emit_svg_phase_portrait,
)
from ddlqr.harness.experiments import ReferenceExperimentConfig, gen_reference_data
from ddlqr.harness.rng import normal_matrix
from ddlqr.harness.sweep import (
    SweepRow,
    bench_scaling,
    deviation_grid,
    gain_path_grid,
    ls_gain_stabilizes,
    reduced_case,
    run_sweep,
    zero_wall_times,
)
from ddlqr.harness.verify import run_verify
from ddlqr.matlin import solve_dlyap, spectral_radius
from ddlqr.synthesis import PlantModel, model_lqr_sdp, synth_reduced_covar

SVG = "{http://www.w3.org/2000/svg}"


def ref_data(seed=0, ell=30):
    return gen_reference_data(ReferenceExperimentConfig(seed=seed, ell=ell))


def fake_row(case="{2}", lam=1.0, status="Optimal", stable=True, h2=3.5, wall=0.25):
    k = np.array([[0.5, -0.25]])
    acl = np.array([[0.1, 0.2], [0.3, 0.4]])
    if status != "Optimal":
        return SweepRow(case, lam, status, 2, 1, wall_time_s=wall)
    return SweepRow(
        case_label=case,
        lam=lam,
        status=status,
        n=2,
        m=1,
        K=k,
        A_cl=acl,
        deviation=0.125,
        dist_to_kls=2.5,
        h2_on_truth=h2 if stable else None,
        truth_stable=stable,
        objective=7.75,
        wall_time_s=wall,
    )


# -- cases and grids ----------------------------------------------------------


def test_case_label_parsing():
    c = reduced_case("{3,1}")
    assert c.label == "{1,3}"
    assert c.active == (True, False, True)
    assert c.parameterization == "gram"
    w = c.weights_at(2.0)
    assert (w.lambda1, w.lambda2, w.lambda3) == (2.0, 0.0, 2.0)
    cc = reduced_case("{2}", "covariance")
    assert cc.parameterization == "covariance"
    assert cc.weights_at(5.0).parameterization == "covariance"
    with pytest.raises(ValueError, match="lambda1 must be 0"):
        reduced_case("{1,2}", "covariance")
    with pytest.raises(DimensionMismatch):
        reduced_case("{4}")
    with pytest.raises(DimensionMismatch):
        reduced_case("{}")
    # Only the two parameterizations the sweep's programs take are accepted.
    for label, param in (("{2}", "covar"), ("{1}", "Gram"), ("{3}", "")):
        with pytest.raises(ValueError, match="^parameterization must be one of"):
            reduced_case(label, param)


def test_lambda_grids():
    dev = deviation_grid()
    assert dev.size == 41
    assert dev[0] == pytest.approx(1e-4) and dev[-1] == pytest.approx(1e6)
    gp = gain_path_grid()
    assert gp.size == 42
    assert gp[0] == 0.0
    assert gp[1] == pytest.approx(1e-4) and gp[-1] == pytest.approx(1e10)


# -- sweep engine -------------------------------------------------------------


def test_run_sweep_rows_and_metrics():
    cfg = ReferenceExperimentConfig(seed=0)
    d = gen_reference_data(cfg)
    st = compute_stats(d)
    pm = PlantModel(A=cfg.a, B=cfg.b, Q=cfg.q, R=cfg.r)
    cases = [reduced_case("{2}", "covariance"), reduced_case("{3}", "covariance")]
    rows = run_sweep(st, cases, [1.0, 0.01], Q=cfg.q, R=cfg.r, plant=pm)
    assert [r.case_label for r in rows] == ["{2}", "{2}", "{3}", "{3}"]
    assert [r.lam for r in rows] == [0.01, 1.0, 0.01, 1.0]
    for r in rows:
        assert r.status == "Optimal"
        dev = np.linalg.norm(r.A_cl - (st.a_ls + st.b_ls @ r.K))
        assert abs(r.deviation - dev) <= 1e-12
        assert abs(r.dist_to_kls - np.linalg.norm(r.K - st.k_ls)) <= 1e-12
        assert r.truth_stable is True and r.h2_on_truth > 0.0
        assert r.wall_time_s > 0.0
    bare = run_sweep(st, cases[:1], [1.0], Q=cfg.q, R=cfg.r)
    assert bare[0].h2_on_truth is None and bare[0].truth_stable is None


def test_run_sweep_zero_lambda_is_certainty_equivalent():
    cfg = ReferenceExperimentConfig(seed=0)
    st = compute_stats(gen_reference_data(cfg))
    ce = synth_reduced_covar(st, cfg.q, cfg.r, RegWeights(parameterization="covariance"))
    rows = run_sweep(st, [reduced_case("{2,3}", "covariance")], [0.0], Q=cfg.q, R=cfg.r)
    assert np.linalg.norm(rows[0].K - ce.K) <= 1e-5


def test_run_sweep_records_failures_per_row():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((2, 12))
    st = compute_stats(Dataset(x0=x0, u0=rng.standard_normal((1, 12)), x1=2.0 * x0))
    rows = run_sweep(st, [reduced_case("{2}", "covariance")], [0.0, 1.0], np.eye(2), np.eye(1))
    # x1 = 2 x0 exactly, so the residual covariance is singular: a row that
    # needs its inverse carries the error's type.
    rows += run_sweep(st, [reduced_case("{1}")], [1.0], np.eye(2), np.eye(1))
    assert [r.status for r in rows] == ["Infeasible", "Infeasible", "SingularCovariance"]
    for r in rows:
        assert r.K is None and r.objective is None and r.deviation is None
    with pytest.raises(DimensionMismatch):
        run_sweep(st, [reduced_case("{2}", "covariance")], [], np.eye(2), np.eye(1))


def test_run_sweep_records_a_gain_without_a_trusted_truth_gramian(monkeypatch):
    # A gain placing the true loop's poles at 1 - 1e-8 and 0.5 passes the
    # stability margin, but _dlyap's residual check refuses its Gramian
    # (NumericalError); that row fails, and the sweep goes on.
    cfg = ReferenceExperimentConfig(seed=0)
    st = compute_stats(gen_reference_data(cfg))
    pm = PlantModel(A=cfg.a, B=cfg.b, Q=cfg.q, R=cfg.r)
    k1 = 0.45 - 1e-8
    K = np.array([[k1, (0.5 * (1.0 - 1e-8) - (0.525 + k1) * 0.525) / 0.325 + 0.325]])
    assert abs(spectral_radius(pm.A + pm.B @ K) - (1.0 - 1e-8)) <= 1e-12
    synth = sweep.synth_reduced

    def near_unit_at_one(stats, Q, R, w):
        sol = synth(stats, Q, R, w)
        return dataclasses.replace(sol, K=K) if w.lambda2 == 1.0 else sol

    monkeypatch.setattr(sweep, "synth_reduced", near_unit_at_one)
    case = reduced_case("{2}", "covariance")
    rows = run_sweep(st, [case], [0.01, 1.0, 100.0], cfg.q, cfg.r, plant=pm)
    assert [r.status for r in rows] == ["Optimal", "NumericalError", "Optimal"]
    assert rows[1].K is None and rows[1].h2_on_truth is None and rows[1].wall_time_s > 0.0
    assert rows[0].truth_stable and rows[2].truth_stable


def test_gain_path_weak_monotone_trend():
    cfg = ReferenceExperimentConfig(seed=0)
    st = compute_stats(gen_reference_data(cfg))
    assert ls_gain_stabilizes(st)
    rows = run_sweep(st, [reduced_case("{2}", "covariance")], gain_path_grid(21), Q=cfg.q, R=cfg.r)
    dists = [r.dist_to_kls for r in rows]
    baseline = dists[0]
    below = [i for i, v in enumerate(dists) if i > 0 and v < baseline]
    assert below
    tail = dists[below[0] :]
    assert all(tail[i + 1] <= tail[i] + 1e-6 for i in range(len(tail) - 1))


def test_ls_gain_stabilizes_keeps_the_programs_stability_margin():
    # A = diag(1 - 5e-10, 0.5), B = [0; 1], u0 orthogonal to x0's rows (so
    # K_LS = 0) and a 1e-4 residual orthogonal to [x0; u0]: the LS loop has
    # rho = 1 - 5e-10, inside the margin that solve_dlyap and the gain path's
    # large-lambda2 end refuse, so the LS gain does not count as stabilizing.
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((40, 5)))
    x0, u0 = q[:, :2].T, q[:, 2:3].T
    x1 = np.diag([1.0 - 5e-10, 0.5]) @ x0 + np.array([[0.0], [1.0]]) @ u0 + 1e-4 * q[:, 3:].T
    st = compute_stats(Dataset(x0=x0, u0=u0, x1=x1))
    a_cl = st.a_ls + st.b_ls @ st.k_ls
    assert 1.0 - 1e-9 <= spectral_radius(a_cl) < 1.0
    assert not ls_gain_stabilizes(st)
    with pytest.raises(UnstableMatrix):
        solve_dlyap(a_cl)
    w = RegWeights(lambda2=1e10, parameterization="covariance")
    with pytest.raises(SynthesisInfeasible):
        synth_reduced_covar(st, np.eye(2), np.eye(1), w)


def test_bench_scaling_rows():
    rows = bench_scaling([30, 60], repeats=1)
    assert len(rows) == 8
    labels = {r.program_label for r in rows}
    assert labels == {"baseline-gram", "baseline-gram-proj", "{1,2,3}", "{1}"}
    for label in ("{1,2,3}", "{1}"):
        sizes = {r.num_vars for r in rows if r.program_label == label}
        assert len(sizes) == 1
    base = sorted(
        (r.ell, r.num_vars) for r in rows if r.program_label == "baseline-gram"
    )
    assert base[0][1] < base[1][1]
    assert all(r.mean_s > 0.0 and r.min_s <= r.mean_s <= r.max_s for r in rows)
    assert all(r.iters > 0 for r in rows)
    assert all(r.ms_per_iter == pytest.approx(1e3 * r.min_s / r.iters) for r in rows)
    # A baseline's Schur complement is over P and Z, (ell - n) n + n(n+1)/2
    # variables; its ell x ell slack is a corner.
    base_order = sorted(
        (r.ell, r.schur_order) for r in rows if r.program_label.startswith("baseline")
    )
    assert base_order == [(30, 59), (30, 59), (60, 119), (60, 119)]
    with pytest.raises(DimensionMismatch):
        bench_scaling([30], repeats=0)


# -- emitters -----------------------------------------------------------------


def test_emit_csv_schema_and_values(tmp_path):
    rows = [
        fake_row(lam=0.5),
        fake_row(lam=2.0, stable=False),
        fake_row(lam=4.0, status="Infeasible"),
        fake_row(lam=8.0, h2=None, stable=None),
    ]
    rows[3] = SweepRow(
        "{2}", 8.0, "Optimal", 2, 1, rows[0].K, rows[0].A_cl, 0.1, 0.2, None, None, 1.5, 0.1
    )
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == [
        "case", "lambda", "status",
        "k_11", "k_12",
        "acl_11", "acl_12", "acl_21", "acl_22",
        "deviation", "dist_to_kls", "h2_on_truth", "objective", "wall_time_s",
    ]
    assert got[1][3] == "0.5" and float(got[1][11]) == 3.5
    assert got[2][11] == "unstable"
    assert got[3][2] == "Infeasible" and set(got[3][3:13]) == {""}
    assert got[4][11] == ""
    assert len(got) == 5


def test_emit_csv_empty_and_mixed_dims(tmp_path):
    path = tmp_path / "never.csv"
    with pytest.raises(DimensionMismatch):
        emit_csv([], path)
    assert not path.exists()
    other = SweepRow("{2}", 1.0, "Optimal", 3, 1)
    with pytest.raises(DimensionMismatch):
        emit_csv([fake_row(), other], tmp_path / "mixed.csv")


def test_emit_csv_byte_stable(tmp_path):
    rows = zero_wall_times([fake_row(lam=0.5), fake_row(lam=2.0)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, a)
    emit_csv(rows, b)
    assert a.read_bytes() == b.read_bytes()
    assert all(r.wall_time_s == 0.0 for r in rows)


def test_emit_bench_csv(tmp_path):
    rows = bench_scaling([30], repeats=1)
    path = tmp_path / "bench.csv"
    emit_bench_csv(rows, path)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0][:4] == ["ell", "program", "repeats", "mean_s"]
    assert got[0][-2:] == ["iters", "schur_order"]
    assert "ms_per_iter" in got[0]
    assert len(got) == 1 + len(rows)
    with pytest.raises(DimensionMismatch):
        emit_bench_csv([], tmp_path / "no.csv")


def test_emit_solution_json(tmp_path):
    pm = PlantModel(A=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]), Q=np.eye(2), R=np.eye(1))
    sol = model_lqr_sdp(pm)
    path = tmp_path / "sol.json"
    emit_solution_json(sol, path)
    rec = json.loads(path.read_text())
    assert rec["n"] == 2 and rec["m"] == 1
    assert rec["program"] == "model" and rec["status"] == "Optimal"
    assert np.allclose(np.array(rec["k"]).reshape(1, 2), sol.K)
    assert np.allclose(np.array(rec["p"]).reshape(2, 2), sol.P)
    assert rec["solver"]["iterations"] >= 1


def test_svg_portrait_structure(tmp_path):
    a_cl = 0.5 * np.eye(2)
    trajs = [
        np.array([[9.0, 4.5, 2.25], [0.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0], [9.0, 4.5]]),
    ]
    path = tmp_path / "portrait.svg"
    emit_svg_phase_portrait(a_cl, trajs, path)
    root = ET.fromstring(path.read_text())
    assert root.tag == f"{SVG}svg"
    polys = root.findall(f".//{SVG}polyline")
    assert len(polys) == 2
    arrows = root.findall(f".//{SVG}g/{SVG}line")
    assert len(arrows) > 100
    with pytest.raises(DimensionMismatch):
        emit_svg_phase_portrait(np.eye(3), [], tmp_path / "bad.svg")
    with pytest.raises(DimensionMismatch):
        emit_svg_phase_portrait(a_cl, [np.zeros((3, 4))], tmp_path / "bad2.svg")


# -- self-check pipeline ------------------------------------------------------


def test_verify_passes_and_writes_artifacts(tmp_path):
    results = run_verify(tmp_path / "arts", seed=0)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert {"kernel-oracles", "equivalence-triangle", "gain-path-endpoint"} <= names
    for fname in ("deviation_path.csv", "gain_path.csv", "portrait.svg", "summary.csv"):
        assert (tmp_path / "arts" / fname).exists()
    summary = (tmp_path / "arts" / "summary.csv").read_text().splitlines()
    assert summary[0] == "check,passed,detail"
    assert len(summary) == 1 + len(results)


# -- command line -------------------------------------------------------------


def test_cli_gen_and_synth_round_trip(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["gen", "--seed", "0", "--ell", "30", "--out", str(data)]) == 0
    out = capsys.readouterr().out
    assert "excitation rank ok: True" in out
    assert "ls gain stabilizes ls estimates:" in out
    sol = tmp_path / "sol.json"
    assert main(["synth", "--data", str(data), "--program", "ce", "--out", str(sol)]) == 0
    rec = json.loads(sol.read_text())
    assert rec["program"] == "ce" and rec["status"] == "Optimal"
    sol2 = tmp_path / "sol2.json"
    rc = main(
        ["synth", "--data", str(data), "--program", "reduced-covar", "--l3", "1.0",
         "--out", str(sol2)]
    )
    assert rc == 0
    assert json.loads(sol2.read_text())["program"] == "reduced-covar"


def test_cli_sweep_small(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--preset", "gain-path", "--points", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("case,lambda,status,")
    assert len(lines) == 1 + 3 * 4
    assert "non-optimal" in capsys.readouterr().out


def test_cli_sweep_alias_matches_primary(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--preset", "fig2", "--points", "2", "--out", str(a)]) == 0
    assert main(["sweep", "--preset", "gain-path", "--points", "2", "--out", str(b)]) == 0
    def drop_timing(p):
        return [",".join(line.split(",")[:-1]) for line in p.read_text().splitlines()]

    assert drop_timing(a) == drop_timing(b)


def test_cli_portrait(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    rc = main(["portrait", "--lambdas", "1", "--out", str(out_dir)])
    assert rc == 0
    files = list(out_dir.glob("*.svg"))
    assert len(files) == 1
    root = ET.fromstring(files[0].read_text())
    assert len(root.findall(f".//{SVG}polyline")) == 6
    assert "dominant-mode angle" in capsys.readouterr().out


def test_cli_bench_small(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--ells", "30", "--repeats", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("ell,program,repeats,")


def test_cli_error_exit_codes(tmp_path, capsys):
    rc = main(["synth", "--data", str(tmp_path / "missing.csv"), "--program", "ce",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    rc = main(["gen", "--ell", "2", "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    bad = tmp_path / "nan.csv"
    bad.write_text("n,m,ell,1,1,3\n1,2,3\n4,nan,6\n7,8,9\n")
    rc = main(["synth", "--data", str(bad), "--program", "ce", "--out", str(tmp_path / "y.json")])
    assert rc == 2
    assert "not finite" in capsys.readouterr().err
    # x1 = 2 x0 gives estimates that are not stabilizable. The Riccati path
    # runs no solver, so the error names the requested program and the
    # estimates, not a solver status.
    x0 = normal_matrix(7, 0, 2, 12)
    unstab = tmp_path / "unstab.csv"
    save_dataset(Dataset(x0=x0, u0=normal_matrix(7, 1, 1, 12), x1=2.0 * x0), unstab)
    for prog in ("ce", "reduced-covar"):
        rc = main(["synth", "--data", str(unstab), "--program", prog,
                   "--out", str(tmp_path / "u.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prog}: ") and "not stabilizable" in err, err
        assert "solver status" not in err
    assert not (tmp_path / "u.json").exists()
    # Bad numeric options are usage errors, raised by argument parsing before
    # any work: no output is written.
    data = tmp_path / "ok.csv"
    assert main(["gen", "--out", str(data)]) == 0
    capsys.readouterr()
    synth = ["synth", "--data", str(data), "--out", str(tmp_path / "z.json"), "--program"]
    for argv in (
        ["bench", "--ells", "30,x", "--out", str(tmp_path / "b.csv")],
        ["bench", "--repeats", "0", "--out", str(tmp_path / "r.csv")],
        ["sweep", "--preset", "deviation", "--points", "-3", "--out", str(tmp_path / "s.csv")],
        ["sweep", "--preset", "gain-path", "--points", "0", "--out", str(tmp_path / "g.csv")],
        ["portrait", "--lambdas", "1,abc", "--out", str(tmp_path / "portraits")],
        synth + ["baseline-gram", "--lambda", "-1"],
        synth + ["baseline-gram", "--lambda", "nan"],
        synth + ["reduced-gram", "--l1", "-1"],
        synth + ["reduced-covar", "--l1", "1"],
        synth + ["baseline-gram", "--l1", "5"],
        synth + ["reduced-gram", "--lambda", "5"],
        synth + ["model", "--l2", "3"],
        synth + ["ce", "--lambda", "1"],
        ["gen", "--noise-std", "-0.1", "--out", str(tmp_path / "n.csv")],
        # No preset option is left on gen or portrait: they have one set-up each.
        ["gen", "--preset", "paper", "--out", str(tmp_path / "p.csv")],
        ["portrait", "--preset", "fig3", "--out", str(tmp_path / "fig3")],
        # A seed only seeds generated data; with --data it would go unread.
        ["sweep", "--preset", "deviation", "--data", str(data), "--seed", "5",
         "--out", str(tmp_path / "sd.csv")],
        ["portrait", "--data", str(data), "--seed", "0", "--out", str(tmp_path / "pd")],
        # A seed is one 64-bit word of the generator's key.
        ["gen", "--seed", "-1", "--out", str(tmp_path / "s1.csv")],
        ["gen", "--seed", str(2**64), "--out", str(tmp_path / "s2.csv")],
        ["verify", "--seed", "-1", "--out", str(tmp_path / "v1")],
        ["sweep", "--preset", "gain-path", "--seed", "-3", "--out", str(tmp_path / "s3.csv")],
        ["portrait", "--seed", str(2**64), "--out", str(tmp_path / "ps")],
        ["bench", "--seed", "-1", "--out", str(tmp_path / "b1.csv")],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err
        # The usage line is the subcommand's, with the flags it takes.
        assert err.startswith(f"usage: ddlqr {argv[0]} "), err
    written = ("b.csv", "r.csv", "s.csv", "g.csv", "portraits", "z.json", "n.csv", "p.csv",
               "fig3", "sd.csv", "pd", "s1.csv", "s2.csv", "v1", "s3.csv", "ps", "b1.csv")
    assert not any((tmp_path / name).exists() for name in written)


# A sweep row that fails at the endpoint carries no gain: each endpoint check
# reports it as a failure naming its status instead of crashing on the gap.
# The sweep reaches both Riccati forms through synthesis.synth_reduced.
@pytest.mark.parametrize(
    "synth,check",
    [("synth_reduced_gram", "deviation-endpoint"), ("synth_reduced_covar", "gain-path-endpoint")],
)
def test_verify_reports_a_failed_endpoint_row(tmp_path, monkeypatch, synth, check):
    real = getattr(synthesis, synth)

    def failing(stats, Q, R, w):
        if max(w.lambda1, w.lambda2, w.lambda3) >= 1e6:
            raise NumericalError("probe")
        return real(stats, Q, R, w)

    monkeypatch.setattr(synthesis, synth, failing)
    results = {r.name: r for r in run_verify(tmp_path, seed=0)}
    assert not results[check].passed
    assert "NumericalError" in results[check].detail
    assert all(r.passed for name, r in results.items() if name != check)
