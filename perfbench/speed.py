"""The host's speed, sampled in between the library's own steps.

The machine the benchmark was written on is a shared VM whose speed
changes by up to half: it alternates between a fast and a slow state in
stretches of 0.1 to a few seconds, and the share of slow time drifts over
minutes, so that a whole 35 s run can be a third slower than the next one.
No statistic of the job's own times removes that.

A ``Sampler`` runs a fixed reference kernel every ``PERIOD_S`` seconds of
wall time from a SIGALRM handler.  Python runs signal handlers between
bytecodes of the main thread, so the kernel runs interleaved with the
library, and its CPU time tracks the speed the library ran at.  A job's
time divided by the mean kernel time during the job is its time in
reference units; that ratio stays within a few percent across the
machine's states where the time itself moves by half.

The CPUs of a VM change speed independently.  Each sample runs the
kernel on the next CPU the process may use, in turn, so the samples cover
every CPU equally, also while the integral's worker processes keep all of
them busy and the main thread only waits.  Serial work moves with the
samples and runs on every CPU in turn, so its time follows the mean
kernel time; work split evenly over all CPUs ends when the slowest CPU's
share ends, so its wall time follows the slowest CPU's mean.
"""

from __future__ import annotations

import os
import signal
from array import array
from fractions import Fraction
from statistics import fmean
from time import perf_counter, thread_time

PERIOD_S = 0.04


def reference_kernel() -> Fraction:
    """Exact rational arithmetic like the library's, on fixed inputs (about 1 ms)."""
    total = Fraction(0)
    for k in range(1, 250):
        total += Fraction(1, k * (k + 1)) * Fraction(k, 3)
    return total


class Sampler:
    """Times ``reference_kernel`` every ``PERIOD_S`` while active.

    ``kernel_cpu`` holds the CPU seconds of every kernel run; ``wall`` and
    ``cpu`` total the time spent in the handler, so that callers can take
    it out of the times they measure around it.
    """

    def __init__(self):
        self.kernel_cpu = array("d")
        self.wall = 0.0
        self.cpu = 0.0
        self._cpus = sorted(os.sched_getaffinity(0))

    def sample(self, signum=None, frame=None) -> None:
        w0 = perf_counter()
        os.sched_setaffinity(0, {self._cpus[len(self.kernel_cpu) % len(self._cpus)]})
        c0 = thread_time()
        reference_kernel()
        c1 = thread_time()
        os.sched_setaffinity(0, self._cpus)  # the thread stays on that CPU until the scheduler moves it
        self.kernel_cpu.append(c1 - c0)
        self.cpu += c1 - c0
        self.wall += perf_counter() - w0

    def kernel_times(self, first: int) -> tuple[float, float]:
        """Mean kernel time of the samples from index ``first`` on: over all of them, and on the slowest CPU."""
        samples = self.kernel_cpu[first:]
        n = len(self._cpus)  # sample i ran on self._cpus[i % n]
        per_cpu = [samples[(c - first) % n :: n] for c in range(n)]
        return fmean(samples), max(fmean(times) for times in per_cpu if times)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
