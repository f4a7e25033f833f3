"""Run one ddlqr benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper-sweeps --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ./src, and
the command fails when that is missing. The run is a closed loop that sends
one operation at a time. It makes its inputs from the seed, does one untimed
warm-up operation, then runs whole rounds of the workload's operations for
about --seconds seconds, stopping before a round that would overrun, and
checks every output against an independent reference. Between operations it
times a fixed reference kernel and reports times at reference speed (see
refkernel.py). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it gives the raw
figures behind the metrics. With --trace 1 the run first measures untraced
passes, then traced ones (each pass rebuilds the inputs and runs one round),
and reports per-layer metrics and the tracing overhead; the spans are
written to .perfbench-out/. Only the first traced pass runs tracemalloc, for
datamodel.stats.peak_mb; per-layer times come from the passes after it.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the loop runs one operation at a time on a small VM, and
# a thread pool's spin-up and contention would be measured as noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("paper-sweeps", "plant-scaling", "baseline-ell", "long-record")
# Extra set-ups, each in a fresh process, whose median with this process's
# own set-up is reported as setup_s, at the run's reference speed.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
OUT_DIR = Path(".perfbench-out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


class Tally:
    """What a sequence of rounds did: per-operation times and outcomes."""

    def __init__(self):
        # Time and (start, end) on perf_counter of each operation that passed.
        self.times: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.round_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run_round(self, ops, kernel) -> None:
        spent = 0.0
        for op in ops:
            self.attempted += 1
            t0 = kernel.clock()
            w0 = time.perf_counter()
            kernel.active = True
            try:
                out = op.run()
            except Exception:
                out = None
                print(f"operation {op.label} raised:", file=sys.stderr)
                traceback.print_exc()
            finally:
                kernel.active = False
            dt = kernel.clock() - t0
            w1 = time.perf_counter()
            spent += dt
            if out is None:
                self.failed += 1
                continue
            problems = op.check(out)
            if problems:
                # The program raises when it cannot solve, so an output that
                # fails its check is a wrong answer, not only a failed one.
                self.failed += 1
                self.wrong += 1
                print(f"operation {op.label} failed: {'; '.join(problems)}", file=sys.stderr)
            else:
                self.times.append(dt)
                self.spans.append((w0, w1))
        self.round_times.append(spent)

    def run_for(self, ops, kernel, seconds: float) -> None:
        """Whole rounds until the next one would end after `seconds`; at least one."""
        deadline = time.perf_counter() + seconds
        while True:
            r0 = time.perf_counter()
            self.run_round(ops, kernel)
            now = time.perf_counter()
            if now + (now - r0) > deadline:
                return


def probe_setups(args) -> list[float]:
    """Set the workload up again in fresh processes and return their set-up times."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-400:]}")
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, ops, warm_ok, own_setup_s, kernel) -> dict:
    tally = Tally()
    with kernel.sampling():
        tally.run_for(ops, kernel, args.seconds)
    rss = peak_rss_mb()
    setups = [own_setup_s] + probe_setups(args)
    raw_setup = statistics.median(setups)
    scaled = [dt * kernel.factor_over(*span) for dt, span in zip(tally.times, tally.spans)]
    raw_busy = sum(tally.times)
    raw_p50 = statistics.median(tally.times) if tally.times else 0.0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(tally.round_times),
        "ops_per_round": len(ops),
        "raw_points_per_s": len(tally.times) / raw_busy if raw_busy else 0.0,
        "raw_point_p50_ms": 1e3 * raw_p50,
        "kernel_mean_ms": 1e3 * kernel.mean(),
        "kernel_samples": len(kernel.samples),
        "speed_factor": sum(scaled) / raw_busy if raw_busy else 0.0,
        "setup_samples_s": setups,
        "raw_setup_s": raw_setup,
    }
    print(json.dumps({"detail": detail}))
    return {
        "correct": warm_ok and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            # Set-up is not sampled, so it takes the run's mean speed: between
            # two sets of ten runs the host's drift moved the raw medians by up
            # to 26 %, and the scaled ones by at most 5 %.
            "setup_s": metric(raw_setup * kernel.factor(), "s"),
            "points_per_s": metric(len(scaled) / sum(scaled) if scaled else 0.0, "1/s"),
            "point_p50_ms": metric(1e3 * statistics.median(scaled) if scaled else 0.0, "ms"),
            "peak_rss_mb": metric(rss, "MB"),
        },
    }


def run_passes(args, tally, kernel, seconds, min_passes, after_pass) -> None:
    """Rebuild the inputs and run one round of them, again until the next
    pass would end after `seconds`, and at least `min_passes` times. Both
    sides of the tracing overhead run this way: on long-record, rounds on
    freshly built inputs took 25 to 40 % longer than rounds on the set-up
    inputs, untraced."""
    import workloads

    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        p0 = time.perf_counter()
        tally.run_round(workloads.build(args.workload, args.seed), kernel)
        done += 1
        after_pass()
        now = time.perf_counter()
        if done >= min_passes and now + (now - p0) > deadline:
            return


def per_layer(args, warm_ok) -> dict:
    import spans
    from refkernel import ReferenceKernel

    half = args.seconds / 2.0
    plain_kernel = ReferenceKernel()
    plain = Tally()
    with plain_kernel.sampling():
        run_passes(args, plain, plain_kernel, half, 1, lambda: None)

    traced_kernel = ReferenceKernel()
    tracer = spans.Tracer(traced_kernel.clock)
    traced = Tally()
    passes, messages, starts = [], {}, [0]

    def summarise():
        first = starts[-1]
        passes.append(tracer.summary(first))
        if len(passes) == 1:
            messages.update(tracer.exit_messages(first))
        tracer.malloc = False
        starts.append(len(tracer.spans))

    tracer.install()
    try:
        with traced_kernel.sampling():
            run_passes(args, traced, traced_kernel, half, 2, summarise)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    f = traced_kernel.factor()
    plain_round = statistics.median(plain.round_times) * plain_kernel.factor()
    # The first pass ran tracemalloc: it gives the counts and the memory peak,
    # the passes after it the times.
    traced_round = statistics.median(traced.round_times[1:]) * f
    metrics = {}
    for name, first_value in passes[0].items():
        unit = _unit(name)
        if unit in ("count", "MB"):
            value = first_value
        else:
            value = f * statistics.median(p[name] for p in passes[1:])
        metrics[name] = metric(value, unit)
    metrics["trace.overhead_pct"] = metric(100.0 * (traced_round / plain_round - 1.0), "%")
    counts_repeat = all(
        p[k] == passes[0][k] for p in passes for k in p if _unit(k) == "count"
    )
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "traced_passes": len(passes),
        "plain_passes": len(plain.round_times), "counts_repeat": counts_repeat,
        "solve_exit_messages": messages,
        "plain_round_s": plain_round, "traced_round_s": traced_round,
    }}))
    return {
        "correct": warm_ok and plain.wrong == 0 and traced.wrong == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }


def _unit(name: str) -> str:
    if name.endswith(".ms_per_iter"):
        return "ms"
    if name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "ddlqr" / "__init__.py").is_file():
        print(f"run.py: no program sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    ops = workloads.build(args.workload, args.seed)
    warm = ops[0].run()
    own_setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    problems = ops[0].check(warm)
    for p in problems:
        print(f"warm-up operation {ops[0].label} failed: {p}", file=sys.stderr)

    if args.trace:
        result = per_layer(args, not problems)
    else:
        from refkernel import ReferenceKernel

        result = end_to_end(args, ops, not problems, own_setup_s, ReferenceKernel())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
