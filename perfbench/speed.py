"""Host-speed sampling for timings in reference seconds.

The shared host the benchmark runs on changes speed by up to half within
seconds, as other tenants' load comes and goes; CPU time moves with wall
time, so it does not help.  While a timed region runs, SIGALRM interrupts it
every TICK_S and a short fixed kernel is timed.  A region's time in
reference seconds is its wall time, less the time spent in the kernel,
scaled by REFERENCE_TICK_S over the mean kernel time sampled during it.
Faster code in the region lowers reference seconds as it lowers wall
seconds; a slower host does not.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

TICK_S = 0.025
# Kernel time on the 2-vCPU Xeon VM the baseline was taken on, when quiet.
# A constant of the benchmark: changing it rescales every reference time.
REFERENCE_TICK_S = 0.0005
_X = np.linspace(0.0, 1.0, 400)


def tick() -> float:
    """Seconds for a fixed mix of interpreter work and small-array numpy
    calls, the two kinds of work the measured code does."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    for _ in range(30):
        acc += float(np.exp(3j * _X).sum().real)
    return perf_counter() - t0


class Sampler:
    """Context manager that times tick() every TICK_S of wall time.  After
    it exits, `samples` holds at least one kernel time: one taken right
    after the region, so regions shorter than TICK_S are covered too."""

    def __init__(self):
        self.samples: list[float] = []

    def _handler(self, signum, frame):
        self.samples.append(tick())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        in_region = sum(self.samples)
        self.samples.append(tick())
        self.in_region_s = in_region
        return False

    def reference_seconds(self, wall_s: float) -> float:
        """`wall_s` of the sampled region, in reference seconds."""
        return (wall_s - self.in_region_s) * REFERENCE_TICK_S / statistics.fmean(self.samples)
