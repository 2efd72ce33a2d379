"""Host-speed calibration for timings taken on a shared, contended host.

Other tenants of the host slow this process by up to ~1.8x, in spells that
last from seconds to minutes, and CPU time slows as much as wall time. A
median over passes cannot remove a spell that covers a whole run, so each
timed span is rescaled by the host's speed while it ran:

    normalised = (seconds - calibration time inside the span)
                 * mean over samples in the span of (NOMINAL_CALIBRATION_S / sample)

which is the span's time at nominal speed when the slowdown factor of each
sampling period is the calibration loop's. `HostSpeed` takes the samples
from a SIGALRM handler every PERIOD_S, so they fall inside the span. The loop
allocates small frozen dataclasses and does dict and list work, like the
simulator: of the loops tried (integer arithmetic, pointer chasing over a
30 MB list, mixes), it tracked decode-16k run times best, cutting their
quartile spread from 16-19 % to 6-7 % over a contended spell.
NOMINAL_CALIBRATION_S is the loop's duration on the uncontended reference
host (2-vCPU Intel Xeon VM, Python 3.11), so normalised times read as
seconds on that host; any comparison divides it out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

clock = time.perf_counter

PERIOD_S = 0.01
NOMINAL_CALIBRATION_S = 130e-6


@dataclass(frozen=True)
class _Item:
    a: float
    n: int


def calibration_loop() -> int:
    """A fixed amount of pure-Python work: ~0.13 ms on the reference host."""
    items = []
    lookup = {"k": 1}
    total = 0
    for i in range(150):
        item = _Item(i * 0.5, i)
        items.append(item)
        total += max(item.n, lookup.get("k", 0)) + len(items)
    return total


def burst(repeats: int = 20) -> list[float]:
    """Calibration times of back-to-back repeats."""
    samples = []
    for _ in range(repeats):
        start = clock()
        calibration_loop()
        samples.append(clock() - start)
    return samples


def speed_factor(samples) -> float:
    """Mean ratio of nominal to measured calibration time (1.0: nominal speed)."""
    return statistics.fmean(NOMINAL_CALIBRATION_S / d for d in samples)


class HostSpeed:
    """Samples the calibration loop every PERIOD_S while active."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.paused = False

    def _sample(self, signum, frame) -> None:
        if self.paused:
            return
        start = clock()
        calibration_loop()
        self.times.append(start)
        self.durations.append(clock() - start)

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def pause(self):
        """Take no samples while harness code (output checks) runs."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """Time at nominal host speed of `seconds` measured within [start, end]
        (fewer than end - start when paused harness work is excluded)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        inside = self.durations[lo:hi]
        if not inside:
            raise ValueError("span holds no calibration samples")
        return (seconds - sum(inside)) * speed_factor(inside)
