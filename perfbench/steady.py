"""Measure how steady the benchmark is: run each workload repeatedly and print
each metric's median, quartiles and spread.

    python3 perfbench/steady.py [--first-seed 1]

Every workload runs RUNS times, each run as long as BENCHMARK.json's
run_seconds. Run i uses seed first-seed + i for every workload, and the
workload order is reversed on every other run, so slow drift of the host does
not land on one workload. The spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, the figure the
benchmark's bounds are set against. The raw figures behind the scaled ones
are summarised too. Results are also saved as JSON under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import OUT_DIR, WORKLOADS

RUNS = 10
RAW = ("raw_setup_s", "raw_points_per_s", "raw_point_p50_ms", "kernel_mean_ms")
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(Path(__file__).resolve().parent / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: {res.stderr[-800:]}")
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]

    results = {w: [] for w in WORKLOADS}
    for i in range(RUNS):
        for w in WORKLOADS if i % 2 == 0 else reversed(WORKLOADS):
            t0 = time.perf_counter()
            res, detail = run_once(w, args.first_seed + i, seconds)
            results[w].append({"result": res, "detail": detail, "wall_s": time.perf_counter() - t0})
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"run {i} {w}: {vals} failed={res['failed']}/{res['attempted']}", flush=True)

    summary = {}
    for w, runs in results.items():
        rows = {}
        for name in runs[0]["result"]["metrics"]:
            rows[name] = spread([r["result"]["metrics"][name]["value"] for r in runs])
        for name in RAW:
            rows[name] = spread([r["detail"][name] for r in runs])
        failed = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        summary[w] = {"metrics": rows, "failed_attempted": sorted(failed),
                      "correct": all(r["result"]["correct"] for r in runs),
                      "wall_s": [r["wall_s"] for r in runs]}
        print(f"\n{w}: correct={summary[w]['correct']} failed/attempted={sorted(failed)}")
        for name, s in rows.items():
            print(f"  {name:18s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {100 * s['spread']:.2f}%")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    saved = {"first_seed": args.first_seed, "seconds": seconds, "summary": summary, "runs": results}
    path.write_text(json.dumps(saved, indent=1))
    print(f"\nsaved {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
