"""Statistics and load-schedule helpers shared by the ledger drivers.

Pure functions over plain numbers: no ``repro`` import, so the unit tests
run without the system under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample that has at least a
    share ``q`` of all samples at or below it (so it is always a value that
    was actually observed)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) by the rule the benchmark
    contract uses: ``statistics.quantiles(values, n=4)``."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and sample count of a per-trial metric."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


class OpenLoopSchedule:
    """A fixed-rate send schedule that does not slow when the system does.

    Op ``i`` is *due* at ``start + i / rate``.  :meth:`take` hands out the
    ops that have come due; the caller stamps each with :meth:`due` — not
    with the time it actually got round to sending — so a stall in the
    system (or in the generator) is charged to every op that waited behind
    it.  ``late_max`` records how late the generator itself ran.
    """

    def __init__(self, start: float, rate: float, count: int) -> None:
        if rate <= 0 or count < 0:
            raise ValueError("rate must be positive and count non-negative")
        self.start = start
        self.rate = rate
        self.count = count
        self.taken = 0
        self.late_max = 0.0

    def due(self, i: int) -> float:
        return self.start + i / self.rate

    @property
    def done(self) -> bool:
        return self.taken >= self.count

    def take(self, now: float) -> range:
        """Indices that came due by ``now`` and were not handed out yet."""
        if now < self.start:
            return range(0)
        upto = min(self.count, int((now - self.start) * self.rate) + 1)
        if upto <= self.taken:
            return range(0)
        self.late_max = max(self.late_max, now - self.due(self.taken))
        ops = range(self.taken, upto)
        self.taken = upto
        return ops

    def seconds_to_next(self, now: float) -> float:
        """How long until the next op is due (0 when one already is)."""
        if self.done:
            return 0.0
        return max(0.0, self.due(self.taken) - now)

