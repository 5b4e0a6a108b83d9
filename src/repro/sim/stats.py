"""Statistics collection for simulation experiments."""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field

#: :meth:`Tally.percentile` inserts the observations recorded since its
#: last call one by one while the sorted copy holds at least this many
#: times as many; otherwise it sorts once (a sort first scans the whole
#: copy, which costs more than a few binary searches)
_INSORT_RATIO = 8


class Tally:
    """Accumulates observations; reports mean, max, and percentiles.

    Keeps every observation (experiments here are small enough), which
    makes exact percentiles and worst-case values available --- Table 4
    reports both the average and the worst-case response time.

    :meth:`percentile` keeps a sorted copy of the observations and brings
    it up to date when it is called: each observation recorded since the
    last call is put in place with ``bisect.insort``, or, when many have
    arrived, they are appended and the copy is sorted once.  So a caller
    that reads a percentile after every observation (the SLO watchdog's
    p99 objectives) pays a binary search per observation, not a sort of
    the whole sample, and :meth:`record` stays one append.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: list[float] = []
        # percentile's sorted copy of the first len(_sorted) observations
        self._sorted: list[float] = []

    def record(self, value: float) -> None:
        """Add one observation."""
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.total / len(self._values) if self._values else 0.0

    @property
    def maximum(self) -> float:
        return max(self._values) if self._values else 0.0

    @property
    def minimum(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def stddev(self) -> float:
        n = len(self._values)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self._values) / (n - 1))

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 <= p <= 100), nearest-rank.

        Nearest-rank takes the smallest observation with at least ``p``
        percent of the sample at or below it: ``rank = ceil(p/100 * n)``.
        The definition leaves ``p = 0`` open (rank 0); we extend it to the
        minimum, which is also what the formula's rank-1 clamp yields.
        Note the rounding-up consequence on tiny samples: with ``n``
        observations any ``0 < p <= 100/n`` lands on rank 1 (the minimum)
        --- e.g. ``percentile(25)`` of a 2-sample Tally is its minimum,
        not an interpolated value.  Table-4 style experiments record
        hundreds of observations, where nearest-rank and interpolating
        definitions agree to within one observation.
        """
        values = self._values
        if not values:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        ordered = self._sorted
        n_sorted = len(ordered)
        if n_sorted < len(values):
            # both branches keep equal observations in arrival order, as
            # one stable sort of the whole sample would
            fresh = values[n_sorted:]
            if len(fresh) * _INSORT_RATIO <= n_sorted:
                for value in fresh:
                    insort(ordered, value)
            else:
                ordered += fresh
                ordered.sort()
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def values(self) -> list[float]:
        """A copy of every observation, in arrival order."""
        return list(self._values)


@dataclass
class UtilizationTracker:
    """Tracks the time-integral of a level (e.g. busy CPUs over time)."""

    level: float = 0.0
    last_change: float = 0.0
    area: float = 0.0
    peak: float = field(default=0.0)

    def update(self, now: float, new_level: float) -> None:
        """Record that the level changed to ``new_level`` at time ``now``."""
        if now < self.last_change:
            raise ValueError("utilization time went backwards")
        self.area += self.level * (now - self.last_change)
        self.level = new_level
        self.last_change = now
        self.peak = max(self.peak, new_level)

    def mean_level(self, now: float) -> float:
        """Average level over [0, now]."""
        if now <= 0:
            return 0.0
        return (self.area + self.level * (now - self.last_change)) / now
