"""Tests for CSV/JSON export."""

from __future__ import annotations

import csv
import io
import json

from repro.metrics.export import (
    JOB_RECORD_FIELDS,
    records_to_csv,
    run_to_json,
    runs_to_csv,
    sweep_to_csv,
)
from repro.metrics.records import JobRecord, RunMetrics
from repro.workload.job import JobKind


def record(job_id=1, kind=JobKind.BATCH, requested_start=None):
    return JobRecord(
        job_id=job_id,
        kind=kind,
        num=64,
        submit=0.0,
        start=10.0,
        finish=110.0,
        requested_start=requested_start,
        eccs_applied=1,
    )


def run(algorithm="EASY"):
    return RunMetrics.from_records(
        [record(1), record(2, JobKind.DEDICATED, requested_start=5.0)],
        algorithm=algorithm,
        machine_size=320,
        utilization=0.8,
        makespan=110.0,
        offered_load=0.9,
        ecc_stats={"applied-queued": 1},
    )


class TestRecordsCSV:
    def test_header_and_rows(self):
        buffer = io.StringIO()
        records_to_csv([record(1), record(2)], buffer)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert len(rows) == 2
        assert set(rows[0]) == set(JOB_RECORD_FIELDS)
        assert rows[0]["job_id"] == "1"
        assert rows[0]["wait"] == "10.0"
        assert rows[0]["requested_start"] == ""  # batch: empty cell

    def test_dedicated_fields_present(self):
        buffer = io.StringIO()
        records_to_csv([record(2, JobKind.DEDICATED, requested_start=5.0)], buffer)
        buffer.seek(0)
        row = next(csv.DictReader(buffer))
        assert row["kind"] == "dedicated"
        assert row["requested_start"] == "5.0"
        assert row["dedicated_delay"] == "5.0"

    def test_file_target(self, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv([record()], path)
        assert path.read_text().startswith("job_id,")


class TestRunsCSV:
    def test_one_row_per_run(self):
        buffer = io.StringIO()
        runs_to_csv([run("EASY"), run("LOS")], buffer)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert [r["algorithm"] for r in rows] == ["EASY", "LOS"]
        assert rows[0]["n_jobs"] == "2"
        assert float(rows[0]["utilization"]) == 0.8

    def test_queue_depth_peak_is_the_exact_queue_maximum(self):
        # A backlogged EASY run whose queue peaks at 631 jobs: the
        # column reads the QueueTracker's exact maximum, not a sampled
        # approximation of it.
        from repro.core.registry import make_scheduler
        from repro.experiments.calibrate import calibrate_beta_arr
        from repro.experiments.runner import simulate
        from repro.workload.generator import GeneratorConfig

        workload = calibrate_beta_arr(GeneratorConfig(n_jobs=2500), 1.5, seed=2).workload
        metrics = simulate(workload, make_scheduler("EASY"))
        buffer = io.StringIO()
        runs_to_csv([metrics], buffer, telemetry=True)
        buffer.seek(0)
        row = next(csv.DictReader(buffer))
        assert metrics.queue.max_queue_length == 631
        assert int(row["tm_queue_depth_peak"]) == metrics.queue.max_queue_length


class TestSweepCSV:
    def test_long_form(self):
        from repro.experiments.sweep import SweepResult

        sweep = SweepResult(sweep_label="Load", sweep_values=[0.5, 0.9])
        sweep.series = {"EASY": [run(), run()], "LOS": [run("LOS"), run("LOS")]}
        buffer = io.StringIO()
        sweep_to_csv(sweep, buffer)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert len(rows) == 4  # 2 algorithms x 2 points
        assert {r["Load"] for r in rows} == {"0.5", "0.9"}


class TestRunJSON:
    def test_payload_complete(self):
        buffer = io.StringIO()
        run_to_json(run(), buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["algorithm"] == "EASY"
        assert payload["ecc_stats"] == {"applied-queued": 1}
        assert len(payload["records"]) == 2
        assert payload["records"][0]["wait"] == 10.0
        assert payload["records"][0]["requested_start"] is None

    def test_file_target(self, tmp_path):
        path = tmp_path / "run.json"
        run_to_json(run(), path)
        assert json.loads(path.read_text())["n_jobs"] == 2
