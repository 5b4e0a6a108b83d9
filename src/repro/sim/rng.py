"""Deterministic random streams.

Every stochastic experiment draws from a :class:`RandomSource` seeded by
the experiment driver, so runs are reproducible bit-for-bit.  Substreams
(one per workload component) keep the components' draws independent of one
another's consumption order.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import TypeVar

T = TypeVar("T")


class RandomSource:
    """A seeded random stream with named substreams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._substreams: dict[str, "RandomSource"] = {}

    @property
    def generator(self) -> random.Random:
        """The seeded ``random.Random`` this source draws from.

        For loops that draw many times: bind its methods once and call
        them directly.  Each method here is a draw of that generator
        (``randint(lo, hi)`` is ``lo + generator._randbelow(hi - lo + 1)``,
        ``bernoulli(p)`` is ``generator.random() < p`` and
        ``exponential(mean)`` is ``generator.expovariate(1.0 / mean)``),
        so a caller that checks the arguments once and then calls the
        generator draws exactly what these wrappers would.
        """
        return self._rng

    def substream(self, name: str) -> "RandomSource":
        """A child stream deterministically derived from (seed, name)."""
        if name not in self._substreams:
            child_seed = random.Random((self.seed, name).__repr__()).getrandbits(64)
            self._substreams[name] = RandomSource(child_seed)
        return self._substreams[name]

    def exponential(self, mean: float) -> float:
        """An exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return self._rng.expovariate(1.0 / mean)

    def uniform(self, lo: float, hi: float) -> float:
        """A uniform variate in [lo, hi]."""
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        """A uniform integer in [lo, hi] inclusive.

        The draw ``random.Random.randint(lo, hi)`` makes once its argument
        checks pass (CPython 3.10 to 3.12), so seeded streams are
        unchanged.  ``_randbelow`` never returns for a width below one,
        hence the range check.
        """
        if hi < lo:
            raise ValueError(f"empty range for randint({lo}, {hi})")
        return lo + self._rng._randbelow(hi - lo + 1)

    def random(self) -> float:
        """A uniform variate in [0, 1)."""
        return self._rng.random()

    def choice(self, seq: Sequence[T]) -> T:
        """A uniformly chosen element of ``seq``."""
        return self._rng.choice(seq)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        return self._rng.random() < p

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """One element of ``items`` drawn with the given relative weights.

        The workload fuzzer biases its operation mix through this: weights
        grow for operation kinds that recently uncovered new coverage.
        """
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        point = self._rng.random() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            if weight < 0:
                raise ValueError("weights must be non-negative")
            acc += weight
            if point < acc:
                return item
        return items[-1]
