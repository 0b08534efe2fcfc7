"""Analysis and reporting tests."""

import pytest

from repro.analysis.report import format_table
from repro.analysis.sharing import (
    SHARING_BUCKETS,
    bucket_bounds,
    sharing_profile,
)
from repro.sim.stats import Histogram


class TestBucketBounds:
    def test_paper_buckets_at_64_sms(self):
        bounds = bucket_bounds(64)
        assert bounds[0] == ("1 SM", 1, 1)
        assert bounds[1] == ("2-10 SMs", 2, 10)
        assert bounds[2] == ("11-25 SMs", 11, 25)
        assert bounds[3] == ("26-64 SMs", 26, 64)

    @pytest.mark.parametrize("num_sms", [4, 8, 16, 32, 64, 128])
    def test_buckets_tile_exactly(self, num_sms):
        bounds = bucket_bounds(num_sms)
        assert bounds[0][1] == 1
        for (_, _, prev_high), (_, low, _) in zip(bounds, bounds[1:]):
            assert low == prev_high + 1
        assert bounds[-1][2] >= num_sms


class TestSharingProfile:
    def _histogram(self, counts):
        histogram = Histogram()
        for degree, pages in counts.items():
            histogram.add(degree, pages)
        return histogram

    def test_fractions_sum_to_one(self):
        histogram = self._histogram({1: 50, 3: 30, 15: 20})
        profile = sharing_profile("X", histogram, num_sms=16)
        assert sum(profile.fractions.values()) == pytest.approx(1.0)

    def test_unshared_fraction(self):
        histogram = self._histogram({1: 80, 5: 20})
        profile = sharing_profile("X", histogram, num_sms=16)
        assert profile.unshared_fraction == pytest.approx(0.8)
        assert profile.shared_fraction == pytest.approx(0.2)

    def test_classification(self):
        low = sharing_profile("L", self._histogram({1: 95, 4: 5}), 16)
        high = sharing_profile("H", self._histogram({1: 30, 16: 70}), 16)
        assert low.classify() == "low"
        assert high.classify() == "high"

    def test_row_format(self):
        profile = sharing_profile("X", self._histogram({1: 10}), 16)
        row = profile.row()
        assert row[0] == "X"
        assert len(row) == 1 + len(SHARING_BUCKETS)


class TestReport:
    def test_format_table_aligns(self):
        table = format_table(["a", "bench"], [["x", 1], ["longer", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

