"""Timing scaled to the machine's current speed, read by fixed work apart from gridprep.

The benchmark's host is shared, and its speed drifts by up to half again in
spells of a few seconds to minutes, which no stage of a few seconds can
average out.  A reading times a fixed piece of work: a pure-Python
dictionary loop and one small integer program solved by SciPy's HiGHS, as
gridprep's evaluations and validations build their models in Python and
solve them with HiGHS.  ``ScaledClock`` cuts a stage into segments of about
a second with a reading between each two, and divides each segment by the
mean of the readings at its ends over ``REFERENCE_S``, the reading's median
on the reference machine (README.md).  The readings themselves are not
counted.  Nothing here imports gridprep, so only a change to the program
moves the scaled time.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

#: median of ``machine_time`` on the reference machine (README.md)
REFERENCE_S = 0.23

_PY_ROUNDS = 200_000
_rng = np.random.default_rng(1)
_N = 17
_ROWS = LinearConstraint(_rng.random((25, _N)), -np.inf, 5.0)
_COST = -_rng.random(_N)


def _python_work() -> int:
    counts: dict[int, int] = {}
    for i in range(_PY_ROUNDS):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return len(counts)


def _milp_work() -> float:
    return milp(_COST, constraints=_ROWS, integrality=np.ones(_N), bounds=Bounds(0, 3)).fun


def machine_time() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    _python_work()
    _milp_work()
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """How much slower than the reference the machine ran between two readings."""
    return (before + after) / 2.0 / REFERENCE_S


class ScaledClock:
    """Wall time and scaled time of the work between calls to ``mark``.

    With ``read=False`` it takes no readings and its scaled time is its wall
    time: a traced run uses that, since the readings in a storm sampler
    would land inside the spans of ``replicate_gap``.
    """

    def __init__(self, read: bool = True) -> None:
        self._read = machine_time if read else (lambda: REFERENCE_S)
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._reading = self._read()
        self._start = time.perf_counter()

    def mark(self) -> None:
        """End the current segment with a reading and start the next."""
        segment = time.perf_counter() - self._start
        reading = self._read()
        self.raw_s += segment
        self.scaled_s += segment / speed_factor(self._reading, reading)
        self._reading = reading
        self._start = time.perf_counter()

    def take(self) -> tuple[float, float]:
        """End the current segment; return and reset (wall time, scaled time)."""
        self.mark()
        times = self.raw_s, self.scaled_s
        self.raw_s = self.scaled_s = 0.0
        return times
