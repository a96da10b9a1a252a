"""Tests for the statistics helpers."""

from __future__ import annotations

import pytest

from repro.metrics.stats import (
    improvement_percent,
    max_improvement,
    mean,
    paper_slowdown,
)
from tests.metrics.records_reference import bounded_slowdown, per_job_slowdowns


class TestMean:
    def test_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty(self):
        assert mean([]) == 0.0

    def test_accepts_generators(self):
        assert mean(x for x in (2.0, 4.0)) == 3.0


class TestSlowdown:
    def test_paper_definition_is_ratio_of_means(self):
        # (mean_wait + mean_run) / mean_run
        assert paper_slowdown(100.0, 50.0) == 3.0

    def test_no_wait_gives_one(self):
        assert paper_slowdown(0.0, 123.0) == 1.0

    def test_degenerate_runtime(self):
        assert paper_slowdown(100.0, 0.0) == 1.0

    def test_per_job_slowdowns(self):
        values = per_job_slowdowns([(10.0, 10.0), (0.0, 5.0)])
        assert values == [2.0, 1.0]

    def test_per_job_zero_runtime_floored(self):
        assert per_job_slowdowns([(10.0, 0.0)]) == [10.0]

    def test_ratio_of_means_differs_from_mean_of_ratios(self):
        """The distinction §V quietly makes; both are exposed."""
        pairs = [(100.0, 1.0), (0.0, 99.0)]
        ratio_of_means = paper_slowdown(50.0, 50.0)  # = 2.0
        mean_of_ratios = mean(per_job_slowdowns(pairs))  # = (101 + 1)/2
        assert ratio_of_means != mean_of_ratios

    def test_bounded_slowdown(self):
        # Short job: denominator floored at the threshold.
        assert bounded_slowdown([(90.0, 10.0)], threshold=10.0) == [10.0]
        assert bounded_slowdown([(5.0, 1.0)], threshold=10.0) == [1.0]  # max(1, 6/10)


class TestImprovements:
    def test_higher_is_better(self):
        assert improvement_percent(1.1, 1.0, higher_is_better=True) == pytest.approx(10.0)
        assert improvement_percent(0.9, 1.0, higher_is_better=True) == pytest.approx(-10.0)

    def test_lower_is_better(self):
        assert improvement_percent(80.0, 100.0, higher_is_better=False) == pytest.approx(20.0)
        assert improvement_percent(120.0, 100.0, higher_is_better=False) == pytest.approx(-20.0)

    def test_zero_baseline(self):
        assert improvement_percent(5.0, 0.0, True) == 0.0

    def test_max_improvement_over_sweep(self):
        ours = [90.0, 70.0, 95.0]
        base = [100.0, 100.0, 100.0]
        assert max_improvement(ours, base, higher_is_better=False) == pytest.approx(30.0)

    def test_max_improvement_mismatched_lengths(self):
        with pytest.raises(ValueError, match="different lengths"):
            max_improvement([1.0], [1.0, 2.0], True)

    def test_max_improvement_empty(self):
        assert max_improvement([], [], True) == 0.0
