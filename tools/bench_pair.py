"""Benchmark the working tree against a base commit in alternating pairs.

    python3 tools/bench_pair.py --tag pr26 --workload baseline-ell

Run it from the root of the checkout. The base's committed files (--base,
HEAD by default) are exported with `git archive` into a temporary directory,
which is removed afterwards; the change is the working tree. Each of the
PAIRS pairs runs the unchanged perfbench/run.py once on each side, for the
run_seconds that BENCHMARK.json sets; pair i gives both sides seed --seed + i,
so the two sides see the same inputs; the base runs first in even pairs and
the change in odd ones, so that neither side always follows the other.
After the pairs, one --trace 1 run per side gives the per-layer figures.
BLAS is pinned to one thread, as run.py pins it.

Writes BENCH_<tag>.json: per workload and end-to-end metric, both sides'
values, medians, quartiles and IQRs, and in how many pairs the change was
better (the better direction is read from BENCHMARK.json); each traced run's
metrics and exit messages; the machine; and the revisions, with the git
tree ids of the directories the benchmark runs from (src/ and perfbench/)
on each side, so that a measured working tree can be matched to the commit
that later holds it: `git rev-parse <commit>:src`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
BLAS_THREADS = 1
PAIRS = 10
MEASURED = ("src", "perfbench")
SOLVER_LAYERS = (
    "conic.solve.ms_per_iter",
    "conic.solve.iters",
    "conic.solve.converged",
    "conic.solve.snapshot",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    p.add_argument("--workload", action="append", required=True, help="repeatable")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--base", default="HEAD", help="commit the change is compared with")
    return p.parse_args(argv)


def git(*args, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def worktree_tree() -> str:
    """Tree id of the working tree as `git add -A` would stage it, written
    through a temporary index so the repository's own index is untouched."""
    with tempfile.TemporaryDirectory() as d:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(d) / "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def measured_trees(tree_ish: str) -> dict:
    return {path: git("rev-parse", f"{tree_ish}:{path}") for path in MEASURED}


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, without any repository state."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run: its result line, and the detail line before it."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2]).get("detail", {}) if len(lines) > 1 else {}
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per end-to-end metric: both sides' spreads and the change's wins."""
    out = {}
    for name, direction in better.items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        out[name] = {
            "better": direction,
            "base": spread(base),
            "change": spread(change),
            "wins": sum(sign * (c - b) < 0.0 for b, c in zip(base, change)),
            "pairs": len(pairs),
        }
    return out


def traced(result: dict) -> dict:
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {
        "solver": {k: metrics[k] for k in SOLVER_LAYERS if k in metrics},
        "metrics": metrics,
        "exit_messages": result["detail"].get("solve_exit_messages", {}),
        "correct": result["correct"],
        "failed": result["failed"],
    }


def machine() -> dict:
    import numpy as np
    import scipy  # the benchmark's reference needs it

    info = {
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    try:  # show_config(mode=...) is numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    base_rev = git("rev-parse", args.base)
    report = {
        "tag": args.tag,
        "base": {"commit": base_rev, "trees": measured_trees(base_rev)},
        "change": {
            "head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain")),
            "trees": measured_trees(worktree_tree()),
        },
        "seconds": seconds,
        "machine": machine(),
        "workloads": {},
    }
    tmp = Path(tempfile.mkdtemp(prefix="bench-base-"))
    try:
        export(base_rev, tmp)
        for workload in args.workload:
            pairs = []
            for i in range(PAIRS):
                seed = args.seed + i
                order = (tmp, ROOT) if i % 2 == 0 else (ROOT, tmp)
                got = {side: run(side, workload, seed, seconds, 0) for side in order}
                pair = (got[tmp], got[ROOT])
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + " -> ".join(
                    f"{r['metrics']['point_p50_ms']['value']:.1f} ms" for r in pair
                ), file=sys.stderr)
            report["workloads"][workload] = {
                "seeds": [args.seed + i for i in range(PAIRS)],
                "correct": all(r["correct"] for pair in pairs for r in pair),
                "failed": {"base": [b["failed"] for b, _ in pairs],
                           "change": [c["failed"] for _, c in pairs]},
                "end_to_end": compare(pairs, better),
                "traced": {
                    side: traced(run(path, workload, args.seed, seconds, 1))
                    for side, path in (("base", tmp), ("change", ROOT))
                },
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
