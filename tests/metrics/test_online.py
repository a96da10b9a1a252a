"""The one completion fold vs. the record-walking reference.

Every run folds its completions into
:class:`~repro.metrics.online.OnlineAggregator` sums, and ``online=True``
adds the P² p95 wait in an :class:`~repro.metrics.online.OnlineSummary`.
The headline test here runs *every* registry algorithm — with fault
injection live, so requeues, evictions and retry exhaustion all flow
through the fold — and requires the online summary to equal the old
per-record walk (``tests/metrics/records_reference.py``) bit for bit.
The single knowingly-approximate figure, the P² p95 wait, gets its own
tolerance-pinned tests.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.runner import simulate
from repro.faults.model import FaultConfig
from repro.metrics.breakdown import by_kind
from repro.metrics.online import (
    P2_REL_TOLERANCE,
    OnlineAggregator,
    P2Quantile,
    exact_quantile,
)
from repro.metrics.records import JobRecord
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.job import JobKind
from repro.workload.twostage import TwoStageSizeConfig
from tests.metrics.records_reference import RecordMetrics, differences, mean


def _workload(p_dedicated: float):
    config = GeneratorConfig(
        n_jobs=120,
        size=TwoStageSizeConfig(p_small=0.5),
        p_dedicated=p_dedicated,
        p_extend=0.3,
        p_reduce=0.1,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(11))


@pytest.fixture(scope="module")
def workloads():
    return {"hetero": _workload(0.2), "batch": _workload(0.0)}


#: OnlineSummary fields that restate a RunMetrics completion statistic.
SUMMARY_STATS = (
    "n_jobs",
    "mean_wait",
    "mean_runtime",
    "mean_response",
    "slowdown",
    "mean_bounded_slowdown",
    "mean_per_job_slowdown",
    "mean_dedicated_delay",
    "dedicated_on_time_rate",
)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_online_matches_exact_under_faults(algorithm, workloads):
    """Every algorithm, faults on: the online summary == the record walk."""
    scheduler = make_scheduler(algorithm)
    workload = workloads["hetero" if scheduler.handles_dedicated else "batch"]
    metrics = simulate(
        workload,
        scheduler,
        faults=FaultConfig(mtbf=40000.0, mttr=2000.0, seed=5),
        online=True,
    )
    summary = metrics.online
    assert summary is not None
    reference = RecordMetrics(metrics)
    for name in SUMMARY_STATS:
        assert repr(getattr(summary, name)) == repr(getattr(reference, name)), name
    assert (summary.utilization, summary.makespan) == (metrics.utilization, metrics.makespan)
    assert differences(metrics) == [], algorithm


def test_cross_validate_flags_corruption(workloads):
    metrics = simulate(workloads["batch"], make_scheduler("EASY"), online=True)
    assert differences(metrics) == []
    corrupted = dataclasses.replace(metrics, mean_wait=metrics.mean_wait * 1.01)
    found = differences(corrupted)
    assert any("mean_wait" in f for f in found)


def test_by_class_breakdown_matches_exact(workloads):
    metrics = simulate(workloads["hetero"], make_scheduler("Hybrid-LOS-E"))
    groups = by_kind(metrics.records)
    for kind in JobKind:
        records = [r for r in metrics.records if r.kind is kind]
        stats = groups.get(kind.value)
        if not records:
            assert stats is None
            continue
        assert stats.n_jobs == len(records)
        assert stats.mean_wait == mean(r.wait for r in records)
    assert sum(stats.n_jobs for stats in groups.values()) == metrics.n_jobs


class TestP2Quantile:
    def test_tracks_exact_p95_within_documented_tolerance(self):
        rng = random.Random(3)
        values = [rng.expovariate(0.01) for _ in range(20000)]
        estimator = P2Quantile(0.95)
        for value in values:
            estimator.observe(value)
        exact = exact_quantile(values, 0.95)
        assert estimator.value() == pytest.approx(exact, rel=P2_REL_TOLERANCE)

    def test_exact_below_six_observations(self):
        values = [5.0, 1.0, 9.0, 3.0]
        estimator = P2Quantile(0.95)
        for value in values:
            estimator.observe(value)
        assert estimator.value() == exact_quantile(values, 0.95)

    def test_empty_is_zero(self):
        assert P2Quantile(0.95).value() == 0.0


class TestAggregatorDirect:
    @staticmethod
    def _record(i, wait, runtime):
        return JobRecord(
            job_id=i, kind=JobKind.BATCH, num=1,
            submit=0.0, start=wait, finish=wait + runtime,
        )

    def test_empty_summary_is_all_zero(self):
        summary = OnlineAggregator(p95=True).summary()
        assert summary.n_jobs == 0
        assert summary.mean_wait == 0.0
        assert summary.p95_wait == 0.0
        assert summary.dedicated_on_time_rate == 1.0

    def test_summary_needs_the_p95_estimator(self):
        with pytest.raises(ValueError, match="p95=True"):
            OnlineAggregator().summary()

    def test_means_are_bitwise_equal_to_left_to_right_sums(self):
        """Same float additions in the same order as the record walk."""
        rng = random.Random(9)
        records = [
            self._record(i, rng.uniform(0, 1e4), rng.uniform(1, 1e4))
            for i in range(1000)
        ]
        aggregator = OnlineAggregator()
        aggregator.observe_all(records)
        stats = aggregator.stats()
        assert stats["mean_wait"] == mean([r.wait for r in records])
        assert stats["mean_runtime"] == mean([r.runtime for r in records])

    def test_summary_stamps_utilization_and_makespan(self):
        aggregator = OnlineAggregator(p95=True)
        aggregator.observe(self._record(1, 2.0, 10.0))
        summary = aggregator.summary(utilization=0.5, makespan=12.0)
        assert summary.utilization == 0.5
        assert summary.makespan == 12.0
        assert summary.as_row()["n_jobs"] == 1.0
        assert summary.p95_wait == 2.0
