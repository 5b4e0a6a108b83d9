"""Statistics collectors and random streams."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomSource
from repro.sim.stats import Tally, UtilizationTracker


class TestTally:
    def test_empty(self):
        t = Tally()
        assert t.count == 0
        assert t.mean == 0.0
        assert t.maximum == 0.0
        assert t.percentile(50) == 0.0

    def test_moments(self):
        t = Tally()
        for v in (1.0, 2.0, 3.0, 4.0):
            t.record(v)
        assert t.mean == 2.5
        assert t.maximum == 4.0
        assert t.minimum == 1.0
        assert t.total == 10.0
        assert abs(t.stddev - 1.2909944) < 1e-6

    def test_percentiles_nearest_rank(self):
        t = Tally()
        for v in range(1, 101):
            t.record(float(v))
        assert t.percentile(50) == 50.0
        assert t.percentile(95) == 95.0
        assert t.percentile(100) == 100.0
        assert t.percentile(0) == 1.0

    def test_percentile_bounds(self):
        t = Tally()
        t.record(1.0)
        with pytest.raises(ValueError):
            t.percentile(101)

    def test_values_copy(self):
        t = Tally()
        t.record(1.0)
        vs = t.values()
        vs.append(99.0)
        assert t.count == 1

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("record"),
                    st.floats(
                        min_value=-1e6,
                        max_value=1e6,
                        allow_nan=False,
                    ),
                ),
                # a small pool of values, so duplicates are common
                st.tuples(
                    st.just("record"), st.sampled_from([-1.0, 0.0, 2.5])
                ),
                st.tuples(
                    st.just("percentile"), st.sampled_from([0, 50, 99, 100])
                ),
            ),
            max_size=120,
        )
    )
    def test_interleaved_percentiles_are_nearest_rank(self, steps):
        """Whatever the interleaving of records and reads, and however
        many records arrive between reads, ``percentile(p)`` is the
        nearest-rank element of the whole sample sorted afresh."""
        t = Tally()
        values: list[float] = []
        for op, arg in steps:
            if op == "record":
                t.record(arg)
                values.append(arg)
                continue
            if not values:
                assert t.percentile(arg) == 0.0
                continue
            rank = max(1, math.ceil(arg / 100 * len(values)))
            assert t.percentile(arg) == sorted(values)[rank - 1]

    def test_percentile_after_each_record_makes_few_comparisons(self):
        """A p99 read after every observation (the SLO watchdog's
        pattern) costs a binary search per observation, not a sort of
        the whole sample: sorting all ``n`` values on every call would
        take thousands of comparisons per call at this size."""
        comparisons = [0]

        class Counted(float):
            def __lt__(self, other):
                comparisons[0] += 1
                return float.__lt__(self, other)

        picker = random.Random(3)
        t = Tally()
        values = []
        n_calls = 2_000
        for _ in range(n_calls):
            value = Counted(picker.uniform(0.0, 1_000.0))
            values.append(value)
            t.record(value)
            t.percentile(99)
        assert comparisons[0] < 30 * n_calls
        rank = max(1, math.ceil(0.99 * n_calls))
        assert t.percentile(99) == sorted(map(float, values))[rank - 1]


class TestUtilizationTracker:
    def test_area_accumulates(self):
        u = UtilizationTracker()
        u.update(0.0, 2.0)
        u.update(10.0, 4.0)   # level 2 for 10
        u.update(15.0, 0.0)   # level 4 for 5
        assert u.area == 2.0 * 10 + 4.0 * 5
        assert u.mean_level(20.0) == (20 + 20) / 20.0
        assert u.peak == 4.0

    def test_time_cannot_go_backwards(self):
        u = UtilizationTracker()
        u.update(5.0, 1.0)
        with pytest.raises(ValueError):
            u.update(4.0, 1.0)

    def test_mean_level_zero_horizon(self):
        assert UtilizationTracker().mean_level(0.0) == 0.0


class TestRandomSource:
    def test_deterministic_with_seed(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_substreams_are_independent_of_consumption(self):
        a = RandomSource(7)
        first = a.substream("x").random()
        b = RandomSource(7)
        b.random()  # consume from the parent first
        assert b.substream("x").random() == first

    def test_substream_identity(self):
        a = RandomSource(7)
        assert a.substream("x") is a.substream("x")

    def test_exponential_mean(self):
        rng = RandomSource(3)
        n = 20000
        mean = sum(rng.exponential(10.0) for _ in range(n)) / n
        assert abs(mean - 10.0) < 0.3
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_bernoulli(self):
        rng = RandomSource(3)
        n = 20000
        hits = sum(rng.bernoulli(0.25) for _ in range(n))
        assert abs(hits / n - 0.25) < 0.02
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)

    def test_randint_bounds(self):
        rng = RandomSource(3)
        values = {rng.randint(2, 4) for _ in range(200)}
        assert values == {2, 3, 4}

    def test_randint_draws_what_the_stdlib_draws(self):
        """Draw for draw the stream of ``random.Random(seed).randint``,
        over one-value ranges, widths on both sides of powers of two and
        random widths, at negative and positive offsets."""
        ours = RandomSource(11)
        reference = random.Random(11)
        picker = random.Random(5)
        widths = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256, 257]
        widths += [2**31 - 1, 2**31, 2**31 + 1, 2**64 - 1, 2**64, 2**64 + 1]
        for i in range(12_000):
            if i % 2:
                width = widths[(i // 2) % len(widths)]
            else:
                width = picker.randint(1, 5_000)
            lo = picker.randint(-1_000, 1_000)
            hi = lo + width - 1
            assert ours.randint(lo, hi) == reference.randint(lo, hi)
        with pytest.raises(ValueError):
            ours.randint(3, 2)
        with pytest.raises(ValueError):
            reference.randint(3, 2)
        # a rejected call draws nothing
        assert ours.randint(0, 99) == reference.randint(0, 99)

    def test_choice_and_shuffle(self):
        rng = RandomSource(3)
        items = [1, 2, 3, 4]
        assert rng.choice(items) in items
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
