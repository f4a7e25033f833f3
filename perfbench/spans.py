"""Spans around the program's public names, recorded from outside the program.

`Tracer.install()` replaces each traced name with a wrapper that records a
span: its name, start, end, parent and a few attributes read from the result.
The program looks these names up at call time, so the wrappers see every call
made through them. Spans stay in memory; `write()` saves them when the run
ends. A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
import time
import tracemalloc

from ddlqr import datamodel, effects, synthesis
from ddlqr.conic import problem
from ddlqr.harness import experiments

# Exit paths of conic.solve, read from ConicSolution.message: an empty message
# means the convergence test passed, any other Optimal message that a
# snapshot taken before a stall or failure was returned.
CONVERGED, SNAPSHOT, FAILED = "converged", "snapshot", "failed"


def exit_path(sol) -> str:
    if not sol.optimal:
        return FAILED
    return CONVERGED if sol.message == "" else SNAPSHOT


def _solve_attrs(sol) -> dict:
    return {"iters": sol.iters, "exit": exit_path(sol), "message": sol.message}


def _build_attrs(out) -> dict:
    p = out[0]
    return {"num_vars": p.num_vars, "max_block_dim": max(p.block_dims())}


# (owner, attribute, span name, attributes of the result, tracemalloc on)
def _targets():
    t = [
        (synthesis, "solve", "conic.solve", _solve_attrs, False),
        (problem.LmiProblem, "compiled", "conic.compile", None, False),
        (datamodel, "compute_stats", "datamodel.stats", None, True),
        (experiments, "gen_reference_data", "experiments.gen", None, False),
        (synthesis, "evaluate_on_truth", "synthesis.evaluate", None, False),
        (effects, "param_effect_closed", "effects.closed", None, False),
    ]
    for kind in ("reduced_gram", "reduced_covar", "baseline_gram", "baseline_covar"):
        t.append((synthesis, f"build_{kind}_problem", "synthesis.build", _build_attrs, False))
        t.append((synthesis, f"synth_{kind}", "synthesis.synth", None, False))
    return t


class Tracer:
    """Records spans timed by `clock`, which the benchmark sets to a clock
    that leaves out the reference kernel's samples. While `malloc` is true,
    tracemalloc runs inside the spans whose target asks for it; it slows
    them, so their times are only worth reading from spans made with it off."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.malloc = True
        # [name, start, end, parent index or -1, attributes]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, attrs_of, wants_malloc):
        tracer, spans, stack, clock = self, self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(len(spans) - 1)
            malloc = wants_malloc and tracer.malloc
            if malloc:
                tracemalloc.start()
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if malloc:
                    span[4]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if attrs_of is not None:
                span[4].update(attrs_of(out))
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, name, attrs_of, malloc in _targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, attrs_of, malloc))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of every span from index `first` on."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans[first:]:
            if s[3] >= first:
                own[s[3]] -= s[2] - s[1]
        return own[first:]

    def summary(self, first: int = 0) -> dict[str, float]:
        """Per-layer counts and raw self times of the spans from `first` on."""
        spans = self.spans[first:]
        own = self.self_times(first)

        def total(name):
            return sum(t for s, t in zip(spans, own) if s[0] == name)

        def count(name, pred=lambda a: True):
            return sum(1 for s in spans if s[0] == name and pred(s[4]))

        solves = [s[4] for s in spans if s[0] == "conic.solve"]
        builds = [s[4] for s in spans if s[0] == "synthesis.build"]
        stats_peaks = [s[4]["peak_mb"] for s in spans if "peak_mb" in s[4]]
        iters = sum(a["iters"] for a in solves)
        return {
            "conic.solve.calls": len(solves),
            "conic.solve.s": total("conic.solve"),
            "conic.solve.iters": iters,
            "conic.solve.ms_per_iter": 1e3 * total("conic.solve") / iters if iters else 0.0,
            "conic.solve.converged": sum(a["exit"] == CONVERGED for a in solves),
            "conic.solve.snapshot": sum(a["exit"] == SNAPSHOT for a in solves),
            "conic.solve.failed": sum(a["exit"] == FAILED for a in solves),
            "conic.compile.s": total("conic.compile"),
            "datamodel.stats.calls": count("datamodel.stats"),
            "datamodel.stats.s": total("datamodel.stats"),
            "datamodel.stats.peak_mb": max(stats_peaks, default=0.0),
            "experiments.gen.calls": count("experiments.gen"),
            "experiments.gen.s": total("experiments.gen"),
            "synthesis.build.calls": len(builds),
            "synthesis.build.s": total("synthesis.build"),
            "synthesis.build.num_vars": sum(a["num_vars"] for a in builds),
            "synthesis.build.max_block_dim": max((a["max_block_dim"] for a in builds), default=0),
            "synthesis.extract.s": total("synthesis.synth"),
            "synthesis.evaluate.s": total("synthesis.evaluate"),
            "effects.closed.calls": count("effects.closed"),
            "effects.closed.s": total("effects.closed"),
        }

    def exit_messages(self, first: int = 0) -> dict[str, int]:
        """How many solves from span `first` on ended with each message; the
        empty message means the convergence test passed."""
        msgs = Counter(s[4]["message"] for s in self.spans[first:] if s[0] == "conic.solve")
        return dict(sorted(msgs.items()))

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_s": start - t0, "end_s": end - t0}
                rec.update(parent=parent, **attrs)
                fh.write(json.dumps(rec) + "\n")

