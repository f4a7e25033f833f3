"""Self-check pipeline behind the `verify` subcommand.

Runs the fast oracle and equivalence suites on one freshly generated
record, whose statistics every check shares, and writes its sweep and
figure artifacts with timing fields zeroed, so two runs with the same seed
produce byte-identical files.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..datamodel import compute_stats
from ..effects import RegWeights, param_effect_closed
from ..matlin import pinv, solve_dare, solve_dlyap, spectral_radius, sym
from ..synthesis import (
    _BASELINES,
    PlantModel,
    _synth_baseline,
    model_lqr_sdp,
    reduced_sdp,
    synth_reduced,
    synth_reduced_covar,
)
from .emit import emit_csv, emit_svg_phase_portrait
from .experiments import ReferenceExperimentConfig, gen_reference_data, portrait_trajectories
from .sweep import (
    deviation_grid,
    gain_path_grid,
    ls_gain_stabilizes,
    reduced_case,
    run_sweep,
    zero_wall_times,
)

__all__ = ["CheckResult", "run_verify"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rand_stable(rng, n: int, radius: float = 0.7) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return A * (radius / max(spectral_radius(A), 1e-12))


def _rand_spd(rng, n: int) -> np.ndarray:
    Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return sym(Qm @ np.diag(rng.uniform(0.5, 4.0, n)) @ Qm.T)


def _effect_total_direct(K, A_cl, P, stats, w) -> float:
    total = 0.0
    pairs = [
        (w.lambda1, A_cl - (stats.a_ls + stats.b_ls @ K), stats.cov_resid_x),
        (w.lambda2, K - stats.k_ls, stats.cov_resid_u),
        (w.lambda3, np.eye(stats.n), stats.cov_x0),
    ]
    for lam, dev, cov in pairs:
        if lam > 0.0:
            total += lam * float(np.trace(np.linalg.inv(cov) @ dev @ P @ dev.T))
    return total / stats.ell if w.ell_scaling else total


def _check_data_ranks(cfg, stats) -> CheckResult:
    ok = stats.rank_report.pe_holds and stats.rank_report.full_rank_holds
    gap = float(np.linalg.norm(stats.k_ls - cfg.k_expl))
    ok = ok and gap <= 0.5
    return CheckResult(
        "data-ranks",
        ok,
        f"pe={stats.rank_report.pe_holds} full={stats.rank_report.full_rank_holds} "
        f"|k_ls-k_expl|={gap:.3f}",
    )


def _check_kernels(seed: int) -> CheckResult:
    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(seed * 1000 + trial)
        A_cl = _rand_stable(rng, 3)
        P = solve_dlyap(A_cl)
        worst = max(worst, float(np.linalg.norm(P - A_cl @ P @ A_cl.T - np.eye(3))))
        M = rng.standard_normal((3, 7))
        Mp = pinv(M)
        worst = max(
            worst,
            float(np.linalg.norm(M @ Mp @ M - M)),
            float(np.linalg.norm(Mp @ M @ Mp - Mp)),
            float(np.linalg.norm((M @ Mp).T - M @ Mp)),
            float(np.linalg.norm((Mp @ M).T - Mp @ M)),
        )
        A = _rand_stable(rng, 3, radius=0.9)
        B = rng.standard_normal((3, 2))
        Q = _rand_spd(rng, 3)
        R = _rand_spd(rng, 2)
        K, S = solve_dare(A, B, Q, R)
        BtS = B.T @ S
        resid = A.T @ S @ A - (BtS @ A).T @ np.linalg.solve(R + BtS @ B, BtS @ A) + Q - S
        worst = max(worst, float(np.linalg.norm(resid)))
    return CheckResult("kernel-oracles", worst <= 1e-9, f"worst residual {worst:.2e}")


def _check_effects(stats) -> CheckResult:
    worst = 0.0
    for trial in range(3):
        rng = np.random.default_rng(9000 + trial)
        K = rng.standard_normal((stats.m, stats.n))
        A_cl = _rand_stable(rng, stats.n)
        P = _rand_spd(rng, stats.n)
        for w in (
            RegWeights(lambda1=0.7, lambda2=1.3, lambda3=0.2),
            RegWeights(lambda2=2.0, lambda3=0.5, parameterization="covariance"),
        ):
            got = param_effect_closed(K, A_cl, P, stats, w).total
            want = _effect_total_direct(K, A_cl, P, stats, w)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    return CheckResult("effect-closed-forms", worst <= 1e-8, f"worst rel err {worst:.2e}")


def _check_model_program(cfg) -> CheckResult:
    pm = PlantModel(A=cfg.a, B=cfg.b, Q=cfg.q, R=cfg.r)
    sol = model_lqr_sdp(pm)
    k_opt, _ = solve_dare(pm.A, pm.B, pm.Q, pm.R)
    err = float(np.linalg.norm(sol.K - k_opt))
    return CheckResult("model-vs-riccati", err <= 1e-5, f"|K - K_riccati| {err:.2e}")


def _check_triangle(cfg, d, stats) -> CheckResult:
    """Each baseline, its reduced SDP and the Riccati form of that SDP."""
    worst = 0.0
    for lam in (1e-1, 1e1):
        for program_id, (_, twin) in _BASELINES.items():
            w = twin(lam)
            gains = (
                synth_reduced(stats, cfg.q, cfg.r, w).K,
                reduced_sdp(stats, cfg.q, cfg.r, w).K,
                _synth_baseline(program_id, d, stats, cfg.q, cfg.r, lam).K,
            )
            for i in range(3):
                worst = max(worst, float(np.linalg.norm(gains[i] - gains[i - 1])))
    return CheckResult("equivalence-triangle", worst <= 1e-5, f"worst |dK| {worst:.2e}")


def _check_certainty_equivalence(cfg, stats) -> CheckResult:
    # The SDP on the least-squares model: certainty equivalence through the
    # Riccati equation is the reduced program at zero weights, compared with itself.
    ce = model_lqr_sdp(PlantModel(A=stats.a_ls, B=stats.b_ls, Q=cfg.q, R=cfg.r))
    sol = synth_reduced_covar(stats, cfg.q, cfg.r, RegWeights(parameterization="covariance"))
    gain_err = float(np.linalg.norm(sol.K - ce.K))
    ident = float(np.linalg.norm(sol.A_cl - (stats.a_ls + stats.b_ls @ sol.K)))
    ok = gain_err <= 1e-5 and ident <= 1e-8
    return CheckResult(
        "certainty-equivalence", ok, f"|dK| {gain_err:.2e} closed-loop ident {ident:.2e}"
    )


def _check_sweep_artifacts(cfg, stats, out_dir: Path) -> list[CheckResult]:
    pm = PlantModel(A=cfg.a, B=cfg.b, Q=cfg.q, R=cfg.r)
    results = []

    dev_rows = run_sweep(stats, [reduced_case("{1}")], deviation_grid(7), cfg.q, cfg.r, plant=pm)
    emit_csv(zero_wall_times(dev_rows), out_dir / "deviation_path.csv")
    # A row that is not Optimal has no gain to measure: the check fails and
    # names the row's status.
    end = dev_rows[-1]
    ok = all(r.status == "Optimal" for r in dev_rows) and end.deviation <= 1e-3
    detail = f"endpoint row not Optimal: {end.status}"
    if end.deviation is not None:
        detail = f"deviation at 1e6 = {end.deviation:.2e}"
    results.append(CheckResult("deviation-endpoint", ok, detail))

    grid = gain_path_grid(8)
    cases = [reduced_case("{2}", "covariance"), reduced_case("{2,3}", "covariance")]
    gain_rows = run_sweep(stats, cases, grid, Q=cfg.q, R=cfg.r, plant=pm)
    emit_csv(zero_wall_times(gain_rows), out_dir / "gain_path.csv")
    ends = [r for r in gain_rows if r.lam == grid[-1]]  # {2}, then {2,3}
    failed = [f"{r.case_label} {r.status}" for r in ends if r.status != "Optimal"]
    if not ls_gain_stabilizes(stats):
        ok = all(r.status == "Optimal" for r in gain_rows)
        detail = "ls gain does not stabilize estimates on this draw; endpoint check skipped"
    elif failed:
        ok, detail = False, f"endpoint rows not Optimal: {' '.join(failed)}"
    else:
        d2, d23 = (r.dist_to_kls for r in ends)
        ok = d2 <= 1e-3 and d23 > d2
        detail = f"ls gain stabilizes estimates; end dist {{2}}={d2:.2e} {{2,3}}={d23:.2e}"
    results.append(CheckResult("gain-path-endpoint", ok, detail))
    return results


def _check_portrait_artifact(cfg, stats, out_dir: Path) -> CheckResult:
    sol = synth_reduced_covar(
        stats, cfg.q, cfg.r, RegWeights(lambda3=10.0, parameterization="covariance")
    )
    trajs = portrait_trajectories(sol.A_cl)
    path = out_dir / "portrait.svg"
    emit_svg_phase_portrait(sol.A_cl, trajs, path)
    root = ET.fromstring(path.read_text())
    lines = root.findall(f".//{{{'http://www.w3.org/2000/svg'}}}polyline")
    ok = len(lines) == len(trajs) and spectral_radius(sol.A_cl) < 1.0
    return CheckResult(
        "portrait-artifact", ok, f"{len(lines)} trajectories, rho {spectral_radius(sol.A_cl):.3f}"
    )


def run_verify(out_dir, seed: int = 0) -> list[CheckResult]:
    """Run every check, write artifacts under out_dir, return the results."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = ReferenceExperimentConfig(seed=seed)
    d = gen_reference_data(cfg)
    stats = compute_stats(d)
    results = [
        _check_data_ranks(cfg, stats),
        _check_kernels(seed),
        _check_effects(stats),
        _check_model_program(cfg),
        _check_triangle(cfg, d, stats),
        _check_certainty_equivalence(cfg, stats),
    ]
    results.extend(_check_sweep_artifacts(cfg, stats, out_dir))
    results.append(_check_portrait_artifact(cfg, stats, out_dir))
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        fh.write("check,passed,detail\n")
        for r in results:
            detail = r.detail.replace(",", ";")
            fh.write(f"{r.name},{int(r.passed)},{detail}\n")
    return results
