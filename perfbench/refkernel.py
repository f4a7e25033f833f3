"""A fixed reference kernel that measures how fast the host runs right now.

On a shared VM the same work takes different wall time from one stretch of
seconds to the next, because the host's speed drifts, while CPU time equals
wall time. The kernel does a fixed amount of work of the same kind as the
program's inner loops: small dense Cholesky factorisations and triangular
solves, plus dict bookkeeping in the interpreter. It imports nothing of ddlqr,
so a change to the program cannot change its time.

While `sampling()` is on, a timer interrupts the process every PERIOD_S and
samples the kernel if an operation is in progress (`active`), so the
samples cover the operations' time evenly, long operations included.
`clock()` is wall time minus the time spent in the kernel, so operations are
timed without it. Scaling an operation's time by NOMINAL_S / mean(kernel
times taken during it, or nearest to it) reports it at reference speed. The mean, not the
median, because an operation's time is itself a sum over the stretch it ran
in.
"""

from __future__ import annotations

import contextlib
import signal
import time
import tracemalloc

import numpy as np
import scipy.linalg as sla

# Mean kernel time on the reference machine (2 CPUs, OpenBLAS 0.3.31,
# numpy 2.4.6, scipy 1.17.1, one BLAS thread). Times "at reference speed" are
# the times the program would take there.
NOMINAL_S = 1.1e-3

# One kernel pass takes about 1.1 ms and each sample makes two, so sampling
# costs about 2 % of a run.
PERIOD_S = 0.1
# Fewest samples that scale one operation: those taken during it, or else
# the ones nearest to it in time, about the second around it. On a repeated
# n = 6 plant-scaling operation this cut the spread of its times from 11 % to
# 6 %, on a repeated sweep point from 16 % to 8 %; one factor for the whole
# run leaves that spread as it is.
NEAREST = 8

_SIZES = (2, 3, 4, 6, 8, 10, 14)


class ReferenceKernel:
    """Times one fixed pass of small factorisations and dict work."""

    def __init__(self):
        rng = np.random.default_rng(20260418)
        self._systems = []
        for d in _SIZES * 2:
            M = rng.standard_normal((d, d))
            self._systems.append((M @ M.T + d * np.eye(d), rng.standard_normal((d, 2))))
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.spent = 0.0
        self.active = False
        self._work()  # untimed: the first pass loads what it lazily needs

    def _work(self) -> float:
        table: dict[tuple[int, int], float] = {}
        acc = 0.0
        for k, (A, rhs) in enumerate(self._systems):
            L = np.linalg.cholesky(A)
            y = sla.solve_triangular(L, rhs, lower=True)
            x = sla.solve_triangular(L.T, y, lower=False)
            for i in range(A.shape[0]):
                key = (k, i)
                table[key] = table.get(key, 0.0) + float(x[i, 0])
            acc += float(np.vdot(x, rhs))
        for (k, i), v in sorted(table.items()):
            acc += v * (k - i)
        return acc

    def sample(self) -> None:
        """Run the kernel once and record when it ran and its wall time."""
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.stamps.append(0.5 * (t0 + t1))
        self.samples.append(t1 - t0)

    def clock(self) -> float:
        """Wall time without the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def _on_alarm(self, signum, frame) -> None:
        # tracemalloc, on in the traced run around compute_stats, slows every
        # allocation, the kernel's too: a sample taken then is not the host's.
        if self.active and not tracemalloc.is_tracing():
            t0 = time.perf_counter()
            # The operation has just evicted the kernel's code and data from
            # the caches; timing a second, warm pass keeps the program's
            # working set out of the reference.
            self._work()
            self.sample()
            self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every PERIOD_S while `active` is set."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mean(self) -> float:
        if not self.samples:  # operations too short for the timer to fire
            for _ in range(20):
                self.sample()
        return float(np.mean(self.samples))

    def factor(self) -> float:
        """Multiply a time measured in this run by this to get it at reference speed."""
        return NOMINAL_S / self.mean()

    def factor_over(self, start: float, end: float) -> float:
        """The same for a time measured from perf_counter() == `start` to `end`:
        from the samples taken in that span, or from the NEAREST samples to
        its middle when the span holds fewer."""
        if len(self.samples) <= NEAREST:
            return self.factor()
        stamps = np.asarray(self.stamps)
        samples = np.asarray(self.samples)
        inside = (stamps >= start) & (stamps <= end)
        if inside.sum() >= NEAREST:
            return NOMINAL_S / float(np.mean(samples[inside]))
        near = np.argsort(np.abs(stamps - 0.5 * (start + end)))[:NEAREST]
        return NOMINAL_S / float(np.mean(samples[near]))
