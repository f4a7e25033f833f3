"""Digest of the interior-point solves that decide the paper's SDP results.

    python3 tools/solve_digest.py

Run it from the root of a checkout: the program is imported from ./src. It
takes no options. Two groups of solves:

- baseline: the 36 baseline records, reference seeds 1-4 at ell = 30, 60
  and 90, each solved as baseline gram, projected baseline gram and
  baseline covariance at lambda = 1;
- grid: `reduced_sdp` at 11 points of every curve of the two paper sweep
  presets (`ddlqr sweep --preset deviation` and `--preset gain-path`), on
  `deviation_grid(11)` and on `gain_path_grid(10)`, zero and ten log-spaced
  weights: 77 solves.

For each group it prints the number of solves, how many ended at the
convergence test (Optimal with an empty message), the total iterations,
the worst |dK| (Frobenius) against the Riccati twin and one SHA-256 over
every `ConicSolution`'s status, y, objective, iters and message in order.
Two checkouts whose lines are equal solved every program bitwise alike.
BLAS is pinned to one thread, as perfbench/run.py pins it: a threaded GEMM
may sum in another order.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

from ddlqr.datamodel import compute_stats  # noqa: E402
from ddlqr.effects import RegWeights  # noqa: E402
from ddlqr.errors import SynthesisInfeasible  # noqa: E402
from ddlqr.harness.experiments import ReferenceExperimentConfig, gen_reference_data  # noqa: E402
from ddlqr.harness.sweep import deviation_grid, gain_path_grid, reduced_case  # noqa: E402
from ddlqr.synthesis import (  # noqa: E402
    reduced_sdp,
    synth_baseline_covar,
    synth_baseline_gram,
    synth_reduced_covar,
    synth_reduced_gram,
)

# The sweep presets' data seeds, parameterizations, curves and grids (cli.py).
PAPER_GRIDS = (
    (42, "gram", ("{1}", "{1,2}", "{1,3}", "{1,2,3}"), deviation_grid(11)),
    (0, "covariance", ("{2}", "{3}", "{2,3}"), gain_path_grid(10)),
)


def record(seed: int, ell: int):
    cfg = ReferenceExperimentConfig(seed=seed, ell=ell)
    d = gen_reference_data(cfg)
    return cfg, d, compute_stats(d)


def baseline_group():
    """(LqrSolution, Riccati twin) of the 36 baseline records."""
    covar = RegWeights(lambda2=1.0, lambda3=1.0, parameterization="covariance")
    for seed in (1, 2, 3, 4):
        for ell in (30, 60, 90):
            cfg, d, st = record(seed, ell)
            q, r = cfg.q, cfg.r
            yield from (
                (synth_baseline_gram(d, st, q, r, 1.0, False),
                 synth_reduced_gram(st, q, r, RegWeights(1.0, 1.0, 1.0))),
                (synth_baseline_gram(d, st, q, r, 1.0, True),
                 synth_reduced_gram(st, q, r, RegWeights(lambda1=1.0))),
                (synth_baseline_covar(st, q, r, 1.0), synth_reduced_covar(st, q, r, covar)),
            )


def grid_group():
    """(LqrSolution, Riccati twin) of reduced_sdp on the paper grids; a
    refused solve gives (ConicSolution, None)."""
    for seed, param, labels, grid in PAPER_GRIDS:
        cfg, _, st = record(seed, 30)
        twin = synth_reduced_gram if param == "gram" else synth_reduced_covar
        for label in labels:
            for lam in grid:
                w = reduced_case(label, param).weights_at(float(lam))
                try:
                    sol = reduced_sdp(st, cfg.q, cfg.r, w)
                except SynthesisInfeasible as exc:
                    yield exc.solution, None
                    continue
                yield sol, twin(st, cfg.q, cfg.r, w)


def digest(name: str, pairs) -> str:
    h = hashlib.sha256()
    count = converged = iters = 0
    worst = 0.0
    for sol, twin in pairs:
        s = sol if twin is None else sol.solver
        count += 1
        converged += s.optimal and s.message == ""
        iters += s.iters
        if twin is not None:
            worst = max(worst, float(np.linalg.norm(sol.K - twin.K)))
        h.update(s.status.value.encode())
        h.update(np.ascontiguousarray(s.y, dtype=float).tobytes())
        h.update(np.float64(s.objective).tobytes())
        h.update(int(s.iters).to_bytes(4, "little"))
        h.update(s.message.encode() + b"\0")
    return (
        f"{name}: {count} solves, {converged} converged, {iters} iterations, "
        f"worst |dK| {worst:.6e}, sha256 {h.hexdigest()}"
    )


def main() -> int:
    print(digest("baseline", baseline_group()))
    print(digest("grid", grid_group()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
