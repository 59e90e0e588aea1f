"""Host-speed calibration: host times rescaled to a reference speed.

The benchmark runs on shared virtual machines whose speed drifts by
+-20% within seconds as neighbours come and go; the drift shows in
process CPU time as much as in wall time, so no clock choice removes it.
To make runs comparable, the benchmark samples a fixed pure-Python loop
(builtins only, no code of the program) next to the work it times, and
rescales each host time by ``REFERENCE_S / loop time``: a reported time
is what the call would have taken on a host that runs the loop in
``REFERENCE_S``.  A change to the program moves the rescaled times in
full; a change in host speed mostly cancels out.  The raw times are
printed beside them.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: The loop's time on the reference host (an idle 2-vCPU Xeon VM,
#: CPython 3.11): the fastest it ran there.
REFERENCE_S = 0.0030
LOOP_ITERATIONS = 50_000
#: Samples either side of a moment that :meth:`HostSpeed.factor_at` uses.
NEIGHBOURS = 2


def _loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return total


class HostSpeed:
    """Timestamped samples of the calibration loop."""

    def __init__(self) -> None:
        self.when: list[float] = []
        self.seconds: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            _loop()
            self.when.append(started)
            self.seconds.append(time.perf_counter() - started)

    def last_sample_at(self) -> float:
        return self.when[-1] if self.when else float("-inf")

    def factor_at(self, moment: float) -> float:
        """``REFERENCE_S`` over the median loop time near ``moment``."""
        index = bisect.bisect_left(self.when, moment)
        near = self.seconds[max(0, index - NEIGHBOURS): index + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near or self.seconds)

    def factor(self) -> float:
        """``REFERENCE_S`` over the median of every sample."""
        return REFERENCE_S / statistics.median(self.seconds)

    def rescale_span(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` rescaled piece by piece, each
        piece between two samples by the speed around it."""
        points = [start, *(w for w in self.when if start < w < end), end]
        return sum((b - a) * self.factor_at((a + b) / 2)
                   for a, b in zip(points, points[1:]))
