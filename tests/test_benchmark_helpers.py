"""Tests for the benchmark harness helpers (benchmarks/common.py)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import mean_metric, render_improvements, render_sweep
from repro.experiments.sweep import SweepResult
from repro.metrics.records import JobRecord, RunMetrics
from repro.workload.job import JobKind


def run(algorithm, wait, utilization):
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


@pytest.fixture
def sweep():
    result = SweepResult(sweep_label="Load", sweep_values=[0.5, 0.9])
    result.series = {
        "EASY": [run("EASY", 100.0, 0.7), run("EASY", 300.0, 0.8)],
        "Delayed-LOS": [run("Delayed-LOS", 80.0, 0.72), run("Delayed-LOS", 250.0, 0.82)],
    }
    return result


class TestMeanMetric:
    def test_averages_over_sweep(self, sweep):
        assert mean_metric(sweep, "EASY", "mean_wait") == 200.0
        assert mean_metric(sweep, "Delayed-LOS", "utilization") == pytest.approx(0.77)


class TestRenderSweep:
    def test_contains_tables_and_plots(self, sweep):
        text = render_sweep(sweep, "My Figure")
        assert "My Figure" in text
        assert "metric: utilization" in text
        assert "metric: mean_wait" in text
        assert "metric: slowdown" in text
        assert "o = EASY" in text  # legend of the ASCII plot

    def test_metric_subset(self, sweep):
        text = render_sweep(sweep, "t", metrics=("mean_wait",))
        assert "metric: mean_wait" in text
        assert "metric: utilization" not in text


class TestRenderImprovements:
    def test_measured_and_paper_sections(self):
        measured = {"Utilization": {"LOS": 1.0}}
        paper = {"Utilization": {"LOS": 4.1}}
        text = render_improvements("Table X", measured, paper)
        assert "Table X — measured" in text
        assert "Table X — paper reported" in text
        assert "4.1" in text and "1" in text
