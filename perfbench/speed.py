"""Host-speed calibration: every reported time is scaled to one speed.

The benchmark runs on shared cores whose speed drifts by ±25% over
seconds to minutes.  Process CPU time drifts with wall time there (the
slowdown is contention for the core, not preemption), so the same work
timed raw spreads past any useful bound from one run to the next.

A fixed calibration loop (pure-Python arithmetic plus a numpy sort; it
calls nothing of the program under test) is timed around every measured
interval and, through the progress listeners, every ``INTERVAL_S``
inside it.  A measured interval's wall time, minus the calibration time
inside it, is multiplied by ``REFERENCE_S`` over the median calibration
time sampled within ``PAD_S`` of the interval.  A scaled time reads in
seconds of a host on which one calibration loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Nominal seconds of one calibration loop: the speed times are scaled to.
REFERENCE_S = 0.005
#: Least time between two calibrations taken from a progress listener.
INTERVAL_S = 0.1
#: How far before and after an interval its calibrations are taken from.
PAD_S = 1.0

_DATA = np.random.default_rng(0).standard_normal(30_000)


def _loop() -> int:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    np.sort(_DATA)
    np.argsort(_DATA)
    return total


class Speedometer:
    """Calibration samples of one process, placed on the wall clock
    (``time.time()``, the clock journal records carry).

    Disabled, it takes no samples and scales nothing: traced runs report
    raw span times, and their calibration would show up inside spans.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._seconds: list[float] = []

    def sample(self) -> None:
        """Time one calibration loop."""
        if not self.enabled:
            return
        start = time.time()
        t0 = time.perf_counter()
        _loop()
        seconds = time.perf_counter() - t0
        self._starts.append(start)
        self._ends.append(start + seconds)
        self._seconds.append(seconds)

    def tick(self) -> None:
        """Calibrate if ``INTERVAL_S`` has passed since the last sample."""
        if not self._ends or time.time() - self._ends[-1] >= INTERVAL_S:
            self.sample()

    def paused(self, start: float, end: float) -> float:
        """Calibration seconds spent inside ``[start, end]``."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._ends, end)
        return sum(self._seconds[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median calibration time near
        ``[start, end]`` (the next sample, or the last, when none is near)."""
        if not self.enabled or not self._seconds:
            return 1.0
        lo = bisect.bisect_left(self._ends, start - PAD_S)
        hi = bisect.bisect_right(self._starts, end + PAD_S)
        near = self._seconds[lo:hi]
        if not near:
            near = [self._seconds[min(lo, len(self._seconds) - 1)]]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]``, calibration time taken out,
        at the reference speed."""
        return (end - start - self.paused(start, end)) * self.factor(start, end)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self._seconds) if self._seconds else float("nan")

    def spread(self) -> float:
        """Interquartile range over median of the samples: how much the
        host's speed moved during the run."""
        if len(self._seconds) < 4:
            return float("nan")
        q1, q2, q3 = statistics.quantiles(self._seconds, n=4)
        return (q3 - q1) / q2

    def __len__(self) -> int:
        return len(self._seconds)
