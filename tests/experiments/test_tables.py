"""Tests for the Tables IV-VII improvement derivation."""

from __future__ import annotations

import pytest

from repro.experiments.sweep import SweepResult
from repro.experiments.tables import (
    PAPER_TABLE_IV,
    PAPER_TABLE_V,
    PAPER_TABLE_VI,
    PAPER_TABLE_VII,
    TABLE_METRICS,
    improvement_table,
)
from repro.metrics.records import RunMetrics


def run(algorithm, utilization, wait, runtime=100.0):
    """Synthetic RunMetrics with pinned aggregates."""
    from repro.metrics.records import JobRecord
    from repro.workload.job import JobKind

    record = JobRecord(
        job_id=1, kind=JobKind.BATCH, num=32, submit=0.0, start=wait, finish=wait + runtime
    )
    return RunMetrics.from_records(
        [record],
        algorithm=algorithm,
        machine_size=320,
        utilization=utilization,
        makespan=wait + runtime,
    )


@pytest.fixture
def sweep():
    result = SweepResult(sweep_label="Load", sweep_values=[0.5, 0.9])
    result.series = {
        "Delayed-LOS": [run("Delayed-LOS", 0.80, 100.0), run("Delayed-LOS", 0.90, 200.0)],
        "LOS": [run("LOS", 0.78, 150.0), run("LOS", 0.86, 280.0)],
        "EASY": [run("EASY", 0.80, 120.0), run("EASY", 0.88, 240.0)],
    }
    return result


class TestImprovementTable:
    def test_layout_matches_paper_tables(self, sweep):
        table = improvement_table(sweep, "Delayed-LOS", ["LOS", "EASY"])
        assert set(table) == {"Utilization", "Job waiting time", "Slowdown"}
        assert set(table["Utilization"]) == {"LOS", "EASY"}

    def test_max_over_load_points(self, sweep):
        table = improvement_table(sweep, "Delayed-LOS", ["LOS"])
        # Utilization: max(0.80/0.78-1, 0.90/0.86-1) = 4.65%.
        assert table["Utilization"]["LOS"] == pytest.approx(4.65, abs=0.01)
        # Waiting time: max((150-100)/150, (280-200)/280) = 33.33%.
        assert table["Job waiting time"]["LOS"] == pytest.approx(33.33, abs=0.01)

    def test_slowdown_uses_paper_definition(self, sweep):
        table = improvement_table(sweep, "Delayed-LOS", ["EASY"])
        # slowdowns: ours (100+100)/100=2, (200+100)/100=3;
        # EASY: 2.2 and 3.4 -> improvements 9.09% and 11.76%.
        assert table["Slowdown"]["EASY"] == pytest.approx(11.76, abs=0.01)

    def test_metric_direction_flags(self):
        assert TABLE_METRICS["utilization"][1] is True
        assert TABLE_METRICS["mean_wait"][1] is False


class TestPaperConstants:
    @pytest.mark.parametrize(
        "table,baselines",
        [
            (PAPER_TABLE_IV, {"LOS", "EASY"}),
            (PAPER_TABLE_V, {"LOS-D", "EASY-D"}),
            (PAPER_TABLE_VI, {"LOS-E", "EASY-E"}),
            (PAPER_TABLE_VII, {"LOS-DE", "EASY-DE"}),
        ],
    )
    def test_paper_tables_complete(self, table, baselines):
        assert set(table) == {"Utilization", "Job waiting time", "Slowdown"}
        for row in table.values():
            assert set(row) == baselines
            assert all(isinstance(v, float) for v in row.values())

    def test_headline_numbers(self):
        """The abstract's headline improvements."""
        assert PAPER_TABLE_IV["Utilization"]["LOS"] == 4.1
        assert PAPER_TABLE_IV["Job waiting time"]["LOS"] == 31.88
        assert PAPER_TABLE_V["Utilization"]["LOS-D"] == 4.55
        assert PAPER_TABLE_V["Job waiting time"]["LOS-D"] == 25.31
