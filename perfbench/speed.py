"""Normalising wall times for the machine's momentary speed.

On a shared host the speed of the same pure-Python loop drifts by a factor
of up to two over a few seconds, which swamps the differences the
benchmark is meant to show.  :class:`SpeedGauge` times a fixed
calibration loop (integer, ``Fraction`` and tuple work, like the program's)
every :data:`EVERY_S` seconds between ops, and scales each op's wall time
by ``REFERENCE_S / c``, where ``c`` is the median calibration time within
:data:`WINDOW_S` of the op's midpoint.  Normalised times are seconds at the
reference speed; raw wall times are reported next to them.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

EVERY_S = 0.2
WINDOW_S = 0.6
# Calibration time at the reference speed: roughly this loop's median on
# a 2-vCPU x86-64 host under CPython 3.11, so normalised figures stay close
# to wall-clock seconds there.
REFERENCE_S = 0.0015


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of int, Fraction and tuple operations."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
    total = 0
    for i in range(10000):
        total += (i * 7919) % 101
    tuple(x * 3 for x in range(2000))
    return time.perf_counter() - start


class SpeedGauge:
    """Calibration points over a run, and the op-time scaling they imply."""

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []

    def calibrate(self, force: bool = False) -> None:
        """Take a calibration point if none was taken in the last EVERY_S."""
        now = time.perf_counter()
        if force or not self.points or now - self.points[-1][0] >= EVERY_S:
            self.points.append((now, min(calibration_loop(), calibration_loop())))

    def normalise(self, start: float, elapsed: float) -> float:
        middle = start + elapsed / 2
        near = [c for t, c in self.points if abs(t - middle) <= WINDOW_S + elapsed / 2]
        if not near:
            near = [min(self.points, key=lambda p: abs(p[0] - middle))[1]]
        return elapsed * REFERENCE_S / statistics.median(near)

    def median(self) -> float:
        return statistics.median(c for _, c in self.points)
