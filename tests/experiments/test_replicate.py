"""Tests for multi-seed replication."""

from __future__ import annotations

import pytest

from repro.experiments.replicate import (
    AggregatedPoint,
    format_replicated,
    replicate_sweep,
)
from repro.experiments.sweep import SweepResult
from repro.metrics.records import JobRecord, RunMetrics
from repro.workload.job import JobKind


def fake_run(algorithm, wait, utilization=0.8):
    record = JobRecord(
        job_id=1, kind=JobKind.BATCH, num=32, submit=0.0, start=wait, finish=wait + 100.0
    )
    return RunMetrics.from_records(
        [record],
        algorithm=algorithm,
        machine_size=320,
        utilization=utilization,
        makespan=wait + 100.0,
    )


def fake_sweep(seed):
    """Deterministic sweep whose waits depend on the seed."""
    sweep = SweepResult(sweep_label="Load", sweep_values=[0.5, 0.9])
    sweep.series = {
        "A": [fake_run("A", 100.0 + seed), fake_run("A", 200.0 + seed)],
        "B": [fake_run("B", 150.0 + seed), fake_run("B", 260.0 + seed)],
    }
    return sweep


class TestReplicateSweep:
    def test_aggregation_mean_and_ci(self):
        replicated = replicate_sweep(fake_sweep, seeds=[0, 10, 20])
        points = replicated.aggregate("A", "mean_wait")
        assert [p.mean for p in points] == [110.0, 210.0]
        assert all(p.n == 3 for p in points)
        assert all(p.half_width > 0 for p in points)
        assert points[0].low < 110.0 < points[0].high

    def test_single_seed_zero_width(self):
        replicated = replicate_sweep(fake_sweep, seeds=[5])
        point = replicated.aggregate("A", "mean_wait")[0]
        assert point.half_width == 0.0 and point.n == 1

    def test_sweep_values_averaged(self):
        replicated = replicate_sweep(fake_sweep, seeds=[1, 2])
        assert replicated.sweep_values == [0.5, 0.9]

    def test_algorithms_intersection(self):
        replicated = replicate_sweep(fake_sweep, seeds=[0, 1])
        assert replicated.algorithms() == ["A", "B"]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            replicate_sweep(fake_sweep, seeds=[])

    def test_mismatched_shapes_rejected(self):
        def bad(seed):
            sweep = fake_sweep(seed)
            if seed:
                sweep.sweep_values = [0.5]
                sweep.series = {k: v[:1] for k, v in sweep.series.items()}
            return sweep

        with pytest.raises(ValueError, match="mismatched"):
            replicate_sweep(bad, seeds=[0, 1])

    def test_invalid_confidence_rejected(self):
        replicated = replicate_sweep(fake_sweep, seeds=[0])
        with pytest.raises(ValueError, match="confidence"):
            replicated.aggregate("A", "mean_wait", confidence=0.42)


class TestSignificance:
    def test_significant_gap_detected(self):
        # A is always 50-60s faster than B with tiny spread -> significant.
        replicated = replicate_sweep(fake_sweep, seeds=[0, 1, 2, 3])
        assert replicated.significant_gap("A", "B", "mean_wait")
        assert not replicated.significant_gap("B", "A", "mean_wait")


class TestFormatting:
    def test_table_contains_ci_markers(self):
        replicated = replicate_sweep(fake_sweep, seeds=[0, 10])
        text = format_replicated(replicated, "mean_wait")
        assert "±" in text
        assert "95% CI over 2 seeds" in text
        assert "A" in text and "B" in text


class TestRealSweepIntegration:
    def test_replicated_real_experiment(self):
        """End-to-end: replicate a tiny real load sweep over 2 seeds."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.sweep import load_sweep
        from repro.workload.generator import GeneratorConfig

        def run_one(seed):
            config = ExperimentConfig(
                generator=GeneratorConfig(n_jobs=40),
                algorithms=("EASY", "Delayed-LOS"),
                loads=(0.7,),
                seed=seed,
            )
            return load_sweep(config)

        replicated = replicate_sweep(run_one, seeds=[1, 2])
        points = replicated.aggregate("EASY", "mean_wait")
        assert len(points) == 1
        assert points[0].n == 2
        assert points[0].mean >= 0.0
