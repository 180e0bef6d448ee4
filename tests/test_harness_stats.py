"""Tests for summary statistics."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.stats import summarize


class TestSummarize:
    def test_single_value(self):
        stats = summarize([3.0])
        assert stats.count == 1
        assert stats.mean == 3.0
        assert stats.stdev == 0.0
        assert stats.minimum == stats.maximum == 3.0
        assert stats.ci95_halfwidth == 0.0

    def test_basic_moments(self):
        stats = summarize([1, 2, 3, 4, 5])
        assert stats.mean == pytest.approx(3.0)
        assert stats.median == pytest.approx(3.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.stdev == pytest.approx(1.5811, abs=1e-3)

    def test_percentiles_are_nearest_rank(self):
        """Every quantile is a value the sample holds: the smallest one
        with at least that share of the sample at or below it."""
        stats = summarize([0, 10])
        assert (stats.p25, stats.median, stats.p75) == (0.0, 0.0, 10.0)
        stats = summarize([30, 0, 20, 10])
        assert (stats.p25, stats.median, stats.p75) == (0.0, 10.0, 20.0)

    def test_order_independent(self):
        assert summarize([3, 1, 2]) == summarize([1, 2, 3])

    def test_ci_shrinks_with_sample_size(self):
        small = summarize([0, 1] * 10)
        large = summarize([0, 1] * 1000)
        assert large.ci95_halfwidth < small.ci95_halfwidth

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_str_is_one_line(self):
        assert "\n" not in str(summarize([1, 2, 3]))
