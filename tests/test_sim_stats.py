"""Unit tests for statistics primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    Histogram,
    StatsRegistry,
    harmonic_mean,
    percent_improvement,
)


class TestHistogram:
    def test_add_and_total(self):
        h = Histogram()
        h.add(1, 3)
        h.add(2)
        assert h.total == 4
        assert h[1] == 3
        assert h[5] == 0

    def test_fraction(self):
        h = Histogram()
        h.add(1, 8)
        h.add(4, 2)
        assert h.fraction(1) == pytest.approx(0.8)
        assert h.fraction(9) == 0.0

    def test_fraction_empty(self):
        assert Histogram().fraction(1) == 0.0

    def test_bucket_fractions(self):
        h = Histogram()
        h.add(1, 5)
        h.add(3, 3)
        h.add(12, 2)
        buckets = [range(1, 2), range(2, 11), range(11, 65)]
        assert h.bucket_fractions(buckets) == pytest.approx([0.5, 0.3, 0.2])

    def test_keys_sorted(self):
        h = Histogram()
        for key in (5, 1, 3):
            h.add(key)
        assert h.keys() == [1, 3, 5]


class TestStatsRegistry:
    def test_bump_and_get(self):
        reg = StatsRegistry()
        reg.bump("llc.0.hits")
        reg.bump("llc.0.hits", 2)
        assert reg.get("llc.0.hits") == 3

    def test_prefix_suffix_sum(self):
        reg = StatsRegistry()
        reg.bump("llc.0.hits", 1)
        reg.bump("llc.1.hits", 2)
        reg.bump("llc.1.misses", 5)
        assert reg.sum("llc.", ".hits") == 3
        assert reg.sum("llc.") == 8

    def test_merge(self):
        a, b = StatsRegistry(), StatsRegistry()
        a.bump("x", 1)
        b.bump("x", 2)
        b.bump("y", 3)
        a.merge(b)
        assert a.get("x") == 3
        assert a.get("y") == 3


class TestHarmonicMean:
    def test_known_value(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_uniform(self):
        assert harmonic_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1,
                    max_size=20))
    def test_bounded_by_min_and_max(self, values):
        mean = harmonic_mean(values)
        assert min(values) <= mean * (1 + 1e-9)
        assert mean <= max(values) * (1 + 1e-9)

    def test_percent_improvement(self):
        assert percent_improvement([1.5, 1.5]) == pytest.approx(50.0)
