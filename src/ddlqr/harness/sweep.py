"""Regularization-path sweeps and program-size scaling benchmarks."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..datamodel import DataStats, compute_stats
from ..effects import RegWeights
from ..errors import DdlqrError, DimensionMismatch, SynthesisInfeasible
from ..matlin import spectral_radius
from ..synthesis import (
    PlantModel,
    build_baseline_gram_problem,
    build_reduced_gram_problem,
    evaluate_on_truth,
    reduced_sdp,
    synth_baseline_gram,
    synth_reduced_covar,
    synth_reduced_gram,
)
from .experiments import ReferenceExperimentConfig, gen_reference_data

__all__ = [
    "BenchRow",
    "SweepCase",
    "SweepRow",
    "bench_scaling",
    "deviation_grid",
    "gain_path_grid",
    "ls_gain_stabilizes",
    "reduced_case",
    "run_sweep",
    "zero_wall_times",
]


@dataclass(frozen=True)
class SweepCase:
    """One curve of a sweep: the weights of a reduced program, of which
    `active` marks the three effect weights that track lambda."""

    label: str
    parameterization: str
    active: tuple[bool, bool, bool]

    def weights_at(self, lam: float) -> RegWeights:
        l1, l2, l3 = (lam if on else 0.0 for on in self.active)
        return RegWeights(l1, l2, l3, self.parameterization)


def reduced_case(label: str, parameterization: str = "gram") -> SweepCase:
    """Parse a weight-set label like "{1,3}" into a sweep case; an unparsable
    label raises DimensionMismatch, weights RegWeights refuses its ValueError."""
    inner = label.strip().lstrip("{").rstrip("}")
    picks = {tok.strip() for tok in inner.split(",") if tok.strip()}
    bad = picks - {"1", "2", "3"}
    if bad or not picks:
        raise DimensionMismatch(f"unrecognized case label {label!r}")
    active = tuple(str(i) in picks for i in (1, 2, 3))
    canonical = "{" + ",".join(s for s in ("1", "2", "3") if s in picks) + "}"
    case = SweepCase(label=canonical, parameterization=parameterization, active=active)
    case.weights_at(1.0)  # RegWeights states the parameterization rules
    return case


@dataclass(frozen=True)
class SweepRow:
    """One solved point of a sweep; non-Optimal rows carry only the status."""

    case_label: str
    lam: float
    status: str
    n: int
    m: int
    K: np.ndarray | None = None
    A_cl: np.ndarray | None = None
    deviation: float | None = None
    dist_to_kls: float | None = None
    h2_on_truth: float | None = None
    truth_stable: bool | None = None
    objective: float | None = None
    wall_time_s: float = 0.0


def deviation_grid(points: int = 41) -> np.ndarray:
    """Log grid for the model-mismatch sweep."""
    return np.logspace(-4.0, 6.0, points)


def gain_path_grid(points: int = 41) -> np.ndarray:
    """Zero plus a log grid for the gain-shrinkage sweep."""
    return np.concatenate(([0.0], np.logspace(-4.0, 10.0, points)))


def ls_gain_stabilizes(stats: DataStats) -> bool:
    """Whether the LS gain stabilizes the LS estimates on this draw."""
    return spectral_radius(stats.a_ls + stats.b_ls @ stats.k_ls) < 1.0


def run_sweep(
    stats: DataStats,
    cases: list[SweepCase],
    lambdas,
    Q,
    R,
    plant: PlantModel | None = None,
) -> list[SweepRow]:
    """Solve every (case, lambda) point serially and return ordered rows.

    Rows are ordered by the given case order, then ascending lambda. Solver
    failures become status labels on their row instead of raising, so one
    bad point cannot take down a whole sweep.
    """
    lambdas = np.asarray(lambdas, dtype=float).reshape(-1)
    if lambdas.size == 0:
        raise DimensionMismatch("lambda grid is empty")
    rows: list[SweepRow] = []
    for case in cases:
        for lam in np.sort(lambdas):
            rows.append(_sweep_point(case, float(lam), stats, Q, R, plant))
    return rows


def _sweep_point(case, lam, stats, Q, R, plant) -> SweepRow:
    t0 = time.perf_counter()
    fn = synth_reduced_gram if case.parameterization == "gram" else synth_reduced_covar
    try:
        sol = fn(stats, Q, R, case.weights_at(lam))
    except DdlqrError as exc:
        status = str(exc.status) if isinstance(exc, SynthesisInfeasible) else type(exc).__name__
        wall = time.perf_counter() - t0
        return SweepRow(case.label, lam, status, stats.n, stats.m, wall_time_s=wall)
    wall = time.perf_counter() - t0
    ev = None if plant is None else evaluate_on_truth(sol, plant)
    return SweepRow(
        case_label=case.label,
        lam=lam,
        status=sol.status,
        n=stats.n,
        m=stats.m,
        K=sol.K,
        A_cl=sol.A_cl,
        deviation=float(np.linalg.norm(sol.A_cl - (stats.a_ls + stats.b_ls @ sol.K))),
        dist_to_kls=float(np.linalg.norm(sol.K - stats.k_ls)),
        h2_on_truth=None if ev is None else ev.h2_sq,
        truth_stable=None if ev is None else ev.stable,
        objective=sol.objective,
        wall_time_s=wall,
    )


def zero_wall_times(rows: list[SweepRow]) -> list[SweepRow]:
    """Copy of the rows with timing blanked, for byte-stable artifacts."""
    return [replace(r, wall_time_s=0.0) for r in rows]


# -- scaling benchmark --------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    """Wall times of one program at one data length, the fastest per
    iteration, its timed solve's iterations and Schur order (outside corners)."""

    ell: int
    program_label: str
    repeats: int
    mean_s: float
    min_s: float
    max_s: float
    ms_per_iter: float
    num_vars: int
    max_block_dim: int
    iters: int
    schur_order: int


_BENCH_PROGRAMS = (
    ("baseline-gram", "{1,2,3}"),
    ("baseline-gram-proj", "{1}"),
)


def bench_scaling(
    ell_list,
    repeats: int,
    cfg: ReferenceExperimentConfig | None = None,
    lam: float = 1.0,
) -> list[BenchRow]:
    """Time each baseline against its equivalent reduced program.

    Both sides are solved as SDPs, the paper's formulations, so the rows
    compare program sizes and interior-point cost; the Riccati path of
    `synth_reduced_gram` would not show the reduced program's size.

    Every timed run starts from the raw dataset: statistics, problem
    construction, and the solve all count, so the reduced programs are
    charged for their covariance preprocessing. Programs are timed one
    after another. For each, one untimed warmup per record length keeps
    allocator and cache effects out of the means, and every repeat then
    runs all record lengths in turn, so a slow phase of the host weighs on
    all lengths alike instead of deciding one of them. A run never follows
    another program's run: after a large baseline solve a reduced one
    takes up to twice as long. Rows come out ell by ell. Runs are serial
    by construction.
    """
    if repeats < 1:
        raise DimensionMismatch("repeats must be at least 1")
    if cfg is None:
        cfg = ReferenceExperimentConfig()
    ells = [int(ell) for ell in ell_list]
    data = [gen_reference_data(replace(cfg, ell=ell)) for ell in ells]
    rows: list[BenchRow] = []
    for base, reduced in _BENCH_PROGRAMS:
        for label, bench in ((base, _bench_baseline), (reduced, _bench_reduced)):
            problems, runners = zip(*(bench(d, cfg, lam, label) for d in data))
            for runner in runners:
                runner()
            times = [[] for _ in runners]
            for _ in range(repeats):
                iters = []
                for runner, t in zip(runners, times):
                    t0 = time.perf_counter()
                    iters.append(runner())
                    t.append(time.perf_counter() - t0)
            rows += [
                BenchRow(
                    ell=ell,
                    program_label=label,
                    repeats=repeats,
                    mean_s=float(np.mean(t)),
                    min_s=float(np.min(t)),
                    max_s=float(np.max(t)),
                    ms_per_iter=1e3 * float(np.min(t)) / it,
                    num_vars=p.num_vars,
                    max_block_dim=max(p.block_dims()),
                    iters=it,
                    schur_order=np.unique(np.concatenate([b.lv for b in p.compiled()], None)).size,
                )
                for ell, t, it, p in zip(ells, times, iters, problems)
            ]
    return sorted(rows, key=lambda r: ells.index(r.ell))


def _bench_baseline(d, cfg, lam, kind):
    """(problem, timed run returning its iterations) for one baseline program."""
    projected = kind == "baseline-gram-proj"
    p, _ = build_baseline_gram_problem(d, compute_stats(d), cfg.q, cfg.r, lam, projected)

    def run():
        return synth_baseline_gram(d, compute_stats(d), cfg.q, cfg.r, lam, projected).solver.iters

    return p, run


def _bench_reduced(d, cfg, lam, label):
    """(problem, timed run returning its iterations) for one reduced gram SDP."""
    w = reduced_case(label, "gram").weights_at(lam)
    p, _ = build_reduced_gram_problem(compute_stats(d), cfg.q, cfg.r, w)

    def run():
        return reduced_sdp(compute_stats(d), cfg.q, cfg.r, w).solver.iters

    return p, run
