"""Command-line front end: data generation, synthesis, sweeps, figures,
benchmarks, and the self-check pipeline."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from ..datamodel import compute_stats, load_dataset, save_dataset
from ..effects import RegWeights
from ..errors import DdlqrError, SynthesisInfeasible
from ..matlin import spectral_radius
from ..synthesis import (
    PlantModel,
    model_lqr_sdp,
    synth_baseline_covar,
    synth_baseline_gram,
    synth_reduced_covar,
    synth_reduced_gram,
)
from .emit import emit_bench_csv, emit_csv, emit_solution_json, emit_svg_phase_portrait
from .experiments import ReferenceExperimentConfig, gen_reference_data, portrait_trajectories
from .rng import _SEED_END
from .sweep import (
    bench_scaling,
    deviation_grid,
    gain_path_grid,
    ls_gain_stabilizes,
    reduced_case,
    run_sweep,
)
from .verify import run_verify

__all__ = ["main"]

_SWEEP_PRESETS = {
    "deviation": "deviation",
    "fig1": "deviation",
    "gain-path": "gain-path",
    "fig2": "gain-path",
}

# The weight flags each synth program reads; a non-zero value of any other
# weight flag is a usage error, so no flag is silently dropped.
_WEIGHT_FLAGS = {"--l1": "l1", "--l2": "l2", "--l3": "l3", "--lambda": "lam"}
_PROGRAM_FLAGS = {
    "reduced-gram": ("--l1", "--l2", "--l3"),
    "reduced-covar": ("--l2", "--l3"),
    "baseline-gram": ("--lambda",),
    "baseline-gram-proj": ("--lambda",),
    "baseline-covar": ("--lambda",),
    "ce": (),
    "model": (),
}


def _at_least(least, cast=float, many=False, below=np.inf):
    """argparse type: a value in [least, below), so a finite one, or with
    many a comma-separated list of them, so that a bad option is a usage
    error before any work."""

    def parse(text: str):
        try:
            vals = [cast(tok) for tok in (text.split(",") if many else [text])]
        except ValueError:
            vals = [np.nan]
        if not all(least <= v < below for v in vals):
            raise argparse.ArgumentTypeError(
                f"{text!r}: want {cast.__name__}s in [{least:g}, {below})"
            )
        return vals if many else vals[0]

    return parse


_SEED = _at_least(0, int, below=_SEED_END)


def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="generate one dataset and save it as CSV")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--ell", type=int, default=30)
    p.add_argument("--noise-std", type=_at_least(0.0), default=0.1)
    p.add_argument("--out", required=True)


def _add_synth(sub) -> None:
    p = sub.add_parser("synth", help="solve one synthesis program on saved data")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--data", required=True)
    p.add_argument("--program", required=True, choices=tuple(_PROGRAM_FLAGS))
    for flag, dest in _WEIGHT_FLAGS.items():
        p.add_argument(flag, dest=dest, type=_at_least(0.0), default=0.0)
    p.add_argument("--out", required=True)


def _add_sweep(sub) -> None:
    p = sub.add_parser("sweep", help="trace every case of a preset over its lambda grid")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--preset", choices=sorted(_SWEEP_PRESETS), required=True)
    p.add_argument("--data", default=None, help="dataset CSV; generated when omitted")
    p.add_argument("--seed", type=_SEED, default=None, help="seed for generated data")
    p.add_argument("--points", type=_at_least(1, int), default=41)
    p.add_argument("--out", required=True)


def _add_portrait(sub) -> None:
    p = sub.add_parser("portrait", help="phase portraits of the state-weighted case")
    p.set_defaults(run=_cmd_portrait)
    p.add_argument("--lambdas", type=_at_least(0.0, many=True), default=[0.1, 1.0, 10.0, 100.0])
    p.add_argument("--data", default=None, help="dataset CSV; generated when omitted")
    p.add_argument("--seed", type=_SEED, default=None, help="seed for generated data")
    p.add_argument("--out", required=True, help="output directory")


def _add_bench(sub) -> None:
    p = sub.add_parser("bench", help="time baselines against the reduced programs")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--ells", type=_at_least(1, int, many=True), default=[30, 60, 90, 120])
    p.add_argument("--repeats", type=_at_least(1, int), default=10)
    p.add_argument("--lambda", dest="lam", type=_at_least(0.0), default=1.0)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run the oracle and equivalence self-checks")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", default="verify-artifacts", help="artifact directory")


def _report_conditions(stats) -> None:
    rr = stats.rank_report
    print(f"excitation rank ok: {rr.pe_holds}")
    print(f"full data rank ok: {rr.full_rank_holds}")
    print(f"ls gain stabilizes ls estimates: {ls_gain_stabilizes(stats)}")


def _cmd_gen(args) -> int:
    cfg = ReferenceExperimentConfig(seed=args.seed, ell=args.ell, noise_std=args.noise_std)
    d = gen_reference_data(cfg)
    save_dataset(d, args.out)
    _report_conditions(compute_stats(d))
    print(f"wrote {args.out} ({d.n} states, {d.m} inputs, {d.ell} columns)")
    return 0


def _load_or_gen(data_path, seed, default_seed):
    if data_path is not None:
        return load_dataset(data_path), False
    use = default_seed if seed is None else seed
    return gen_reference_data(ReferenceExperimentConfig(seed=use)), True


def _cmd_synth(args) -> int:
    d = load_dataset(args.data)
    stats = compute_stats(d)
    cfg = ReferenceExperimentConfig()
    Q, R = cfg.q, cfg.r
    if args.program == "model":
        sol = model_lqr_sdp(PlantModel(A=cfg.a, B=cfg.b, Q=Q, R=R))
    elif args.program in ("ce", "reduced-covar"):
        # Certainty equivalence is the reduced covariance program at zero weights.
        lams = (0.0, 0.0) if args.program == "ce" else (args.l2, args.l3)
        w = RegWeights(lambda2=lams[0], lambda3=lams[1], parameterization="covariance")
        try:
            sol = synth_reduced_covar(stats, Q, R, w)
        except SynthesisInfeasible as exc:
            # The Riccati path runs no solver: it fails only on estimates
            # that are not stabilizable.
            raise DdlqrError(
                f"{args.program}: the least-squares estimates (A_LS, B_LS) are not "
                "stabilizable, so the program is infeasible"
            ) from exc
        sol = dataclasses.replace(sol, program_id=args.program)
    elif args.program == "reduced-gram":
        w = RegWeights(lambda1=args.l1, lambda2=args.l2, lambda3=args.l3)
        sol = synth_reduced_gram(stats, Q, R, w)
    elif args.program == "baseline-covar":
        sol = synth_baseline_covar(stats, Q, R, args.lam)
    else:
        projected = args.program == "baseline-gram-proj"
        sol = synth_baseline_gram(d, stats, Q, R, args.lam, projected=projected)
    emit_solution_json(sol, args.out)
    gain = np.array2string(sol.K, precision=6, suppress_small=True)
    print(f"{sol.program_id}: {sol.status}, objective {sol.objective:.6f}, K = {gain}")
    return 0


def _cmd_sweep(args) -> int:
    kind = _SWEEP_PRESETS[args.preset]
    default_seed = 42 if kind == "deviation" else 0
    d, generated = _load_or_gen(args.data, args.seed, default_seed)
    stats = compute_stats(d)
    cfg = ReferenceExperimentConfig()
    plant = PlantModel(A=cfg.a, B=cfg.b, Q=cfg.q, R=cfg.r) if generated else None
    if kind == "deviation":
        cases = [reduced_case(lab) for lab in ("{1}", "{1,2}", "{1,3}", "{1,2,3}")]
        grid = deviation_grid(args.points)
    else:
        cases = [reduced_case(lab, "covariance") for lab in ("{2}", "{3}", "{2,3}")]
        grid = gain_path_grid(args.points)
    _report_conditions(stats)
    rows = run_sweep(stats, cases, grid, Q=cfg.q, R=cfg.r, plant=plant)
    emit_csv(rows, args.out)
    bad = [r for r in rows if r.status != "Optimal"]
    print(f"wrote {args.out}: {len(rows)} rows, {len(bad)} non-optimal")
    return 0


def _dominant_angle_deg(a_cl: np.ndarray, v: np.ndarray) -> float:
    w, vecs = np.linalg.eig(a_cl)
    lead = vecs[:, int(np.argmax(np.abs(w)))]
    v_hat = v / np.linalg.norm(v)
    cosine = abs(np.vdot(lead / np.linalg.norm(lead), v_hat))
    return float(np.degrees(np.arccos(min(1.0, cosine))))


def _cmd_portrait(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    d, _ = _load_or_gen(args.data, args.seed, 0)
    stats = compute_stats(d)
    cfg = ReferenceExperimentConfig()
    for lam in args.lambdas:
        w = RegWeights(lambda3=lam, parameterization="covariance")
        sol = synth_reduced_covar(stats, cfg.q, cfg.r, w)
        path = out_dir / f"portrait_lambda_{lam:g}.svg"
        emit_svg_phase_portrait(sol.A_cl, portrait_trajectories(sol.A_cl), path)
        angle = _dominant_angle_deg(sol.A_cl, cfg.v)
        print(
            f"lambda {lam:g}: rho {spectral_radius(sol.A_cl):.4f}, "
            f"dominant-mode angle to v {angle:.1f} deg, wrote {path}"
        )
    return 0


def _cmd_bench(args) -> int:
    cfg = ReferenceExperimentConfig(seed=args.seed)
    rows = bench_scaling(args.ells, args.repeats, cfg, lam=args.lam)
    emit_bench_csv(rows, args.out)
    for r in rows:
        print(
            f"ell {r.ell:4d} {r.program_label:20s} mean {r.mean_s * 1e3:9.1f} ms "
            f"(vars {r.num_vars}, max block {r.max_block_dim}, "
            f"Schur order {r.schur_order}, {r.iters} iterations, "
            f"{r.ms_per_iter:.2f} ms per iteration)"
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_verify(args.out, seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddlqr", description="data-driven LQR synthesis workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_synth(sub)
    _add_sweep(sub)
    _add_portrait(sub)
    _add_bench(sub)
    _add_verify(sub)
    for p in sub.choices.values():
        # Errors found after parsing print the subcommand's usage line.
        p.set_defaults(usage_error=p.error)
    # parse_known_args leaves unrecognized arguments to the subcommand's
    # error, whose usage line shows the flags it takes.
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "synth":
        reads = _PROGRAM_FLAGS[args.program]
        unread = [f for f, dest in _WEIGHT_FLAGS.items() if f not in reads and getattr(args, dest)]
        if unread:
            args.usage_error(f"{args.program} does not read {', '.join(unread)}")
    if getattr(args, "data", None) is not None and getattr(args, "seed", None) is not None:
        args.usage_error("--seed seeds generated data, so it cannot go with --data")
    try:
        return args.run(args)
    except DdlqrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
