"""A clock in reference seconds, steadier against the machine's drifting speed.

On a shared machine the speed at which one core runs Python drifts by more
than a tenth over tens of seconds, as neighbours come and go: the medians of
a fixed workload over consecutive 20-second windows spread by a quarter.
Every time the benchmark reports is therefore read from
:class:`ReferenceClock`, which scales wall time by the measured speed of a
fixed calibration loop, run in this process every ``period`` seconds.  The
loop's speed swings about twice as far as the workloads' do: scaling by it
fully turned four passes over the paper tables of 19.2, 22.3, 24.5 and 22.5
wall seconds into 22.3, 20.2, 17.7 and 18.9, so the clock scales by its
square root (``SENSITIVITY``), which puts them at 20.7, 21.2, 20.8 and 20.6.
The loop allocates no container, so no garbage collection of the program's
heap lands inside it, and the time spent calibrating is left out of the
clock.  The loop shares the process's caches, so a change that crowds them
also slows the loop and is partly hidden: ``run.py`` prints each
repetition's wall time beside it.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter
from typing import Dict, List

#: Iterations of the calibration loop (about 20 ms of interpreter work).
LOOP_ITERATIONS = 40_000

#: Entries of the loop's table: more than the fastest caches hold, as the
#: program's own dictionaries are.
TABLE_SIZE = 1 << 14

#: Seconds the loop takes at reference speed.
REFERENCE_LOOP_S = 0.02

#: Exponent applied to the loop's speed ratio: the share of its swings the
#: workloads feel (see the module docstring).
SENSITIVITY = 0.5

#: Recent calibrations whose median sets the current speed.
WINDOW = 3


def calibration_loop(table: Dict[int, float]) -> float:
    """Fixed interpreter work: integer and float arithmetic, dict traffic."""
    mask = TABLE_SIZE - 1
    total = 0.0
    key = 1
    for _ in range(LOOP_ITERATIONS):
        key = (key * 1103515245 + 12345) & mask
        total += table[key] * 0.25 + key % 7
        table[key] = total % 97.0
    return total


class ReferenceClock:
    """Reads reference seconds; recalibrates when ``period`` wall seconds pass."""

    def __init__(self, period: float = 0.5) -> None:
        self.period = period
        self._table = {index: float(index) for index in range(TABLE_SIZE)}
        self._loops: deque = deque(maxlen=WINDOW)
        #: Every calibration's reference seconds per wall second.
        self.speeds: List[float] = []
        self._reference = 0.0
        self._calibrate()

    def _calibrate(self) -> None:
        start = perf_counter()
        calibration_loop(self._table)
        self._loops.append(perf_counter() - start)
        ratio = REFERENCE_LOOP_S / statistics.median(self._loops)
        self.speed = ratio**SENSITIVITY
        self.speeds.append(self.speed)
        self._wall = perf_counter()

    def __call__(self) -> float:
        wall = perf_counter()
        reference = self._reference + (wall - self._wall) * self.speed
        if wall - self._wall >= self.period:
            self._reference = reference
            self._calibrate()
        return reference

    def convert(self, wall_seconds: float) -> float:
        """Reference seconds for wall seconds measured just now elsewhere."""
        self()
        return wall_seconds * self.speed
