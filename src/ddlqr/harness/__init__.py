"""Experiment engine: data generation, sweeps, benchmarks, and emission."""

from .experiments import ReferenceExperimentConfig, gen_reference_data, simulate_closed_loop
from .sweep import (
    BenchRow,
    SweepCase,
    SweepRow,
    bench_scaling,
    deviation_grid,
    gain_path_grid,
    ls_gain_stabilizes,
    reduced_case,
    run_sweep,
    zero_wall_times,
)
from .verify import CheckResult, run_verify

__all__ = [
    "BenchRow",
    "CheckResult",
    "ReferenceExperimentConfig",
    "SweepCase",
    "SweepRow",
    "bench_scaling",
    "deviation_grid",
    "gain_path_grid",
    "gen_reference_data",
    "ls_gain_stabilizes",
    "reduced_case",
    "run_sweep",
    "run_verify",
    "simulate_closed_loop",
    "zero_wall_times",
]
