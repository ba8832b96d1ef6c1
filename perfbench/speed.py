"""Machine-speed reference for the timings of a measured run.

The shared host this benchmark was tuned on runs the same pure-Python code
anywhere from 1.0 to 2 times slower from one second to the next, so raw wall
times of identical runs differ by more than the benchmark's bounds.  A
measured run therefore times a fixed reference kernel every PERIOD_S seconds
(SIGALRM) and scales each interval of work by the machine's speed during it:

    scaled = raw * mean(REF_S / kernel time)   over the samples in the interval

A scaled time is the time the work would take on a machine on which the
kernel takes REF_S.  Only the benchmark's own code is in the kernel, so a
change to `src/` moves the scaled times as it moves the raw ones.  The
kernel's own time is taken out of the raw intervals.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_S = 1e-3  # nominal kernel time; about the kernel's fastest time on the tuning host
PERIOD_S = 0.05  # wall time between samples
SETUP_SAMPLES = 20  # kernel samples right after the imports, for the set-up time

clock = time.perf_counter


class _Elem:
    """A small value type with operators, like the package's field elements."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Elem(self.v * other.v % 1009)

    def __add__(self, other):
        return _Elem((self.v + other.v) % 1009)


def kernel():
    """About a millisecond of interpreter work: object construction,
    operator dispatch, tuple hashing and dict updates."""
    table = {}
    acc = _Elem(1)
    for i in range(1, 1100):
        x = _Elem(i)
        acc = acc * x + x
        key = (i % 17, acc.v % 13)
        table[key] = table.get(key, 0) + 1
    return len(table) + acc.v


def timed_kernel() -> float:
    t0 = clock()
    kernel()
    return clock() - t0


def setup_speed() -> float:
    """Mean speed factor (REF_S / kernel time) of SETUP_SAMPLES kernels."""
    return statistics.fmean(REF_S / timed_kernel() for _ in range(SETUP_SAMPLES))


class Sampler:
    """Samples the kernel every PERIOD_S while started.  `times[i]` is the
    middle of sample i, `speeds[i]` its REF_S / kernel time, and `spent` the
    total time spent in the kernel so far."""

    def __init__(self):
        self.times: list = []
        self.speeds: list = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = clock()
        kernel()
        dt = clock() - t0
        self.times.append(t0 + dt / 2)
        self.speeds.append(REF_S / dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over the samples in [t0, t1]; the nearest sample's if
        none lies inside."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return statistics.fmean(self.speeds[lo:hi])
        if not self.times:
            raise RuntimeError("no speed samples were taken")
        mid = (t0 + t1) / 2
        near = min(
            (i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
            key=lambda i: abs(self.times[i] - mid),
        )
        return self.speeds[near]
