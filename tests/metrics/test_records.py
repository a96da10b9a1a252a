"""Tests for job records and run metrics."""

from __future__ import annotations

import pickle
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.runner import SimulationRunner, simulate
from repro.faults.model import FaultConfig
from repro.metrics.records import JobRecord, RunMetrics
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.job import JobKind
from tests.conftest import batch_job
from tests.metrics.records_reference import differences
from tests.obs.test_replay_reference import SCENARIOS
from tests.obs.test_replay_reference import _workload as _cancelling_workload


def record(job_id=1, submit=0.0, start=10.0, finish=110.0, num=32, **kwargs):
    return JobRecord(
        job_id=job_id, kind=kwargs.pop("kind", JobKind.BATCH), num=num,
        submit=submit, start=start, finish=finish, **kwargs,
    )


class TestJobRecord:
    def test_derived_quantities(self):
        r = record(submit=5.0, start=20.0, finish=120.0)
        assert r.wait == 15.0
        assert r.runtime == 100.0
        assert r.dedicated_delay is None

    def test_dedicated_delay(self):
        r = record(kind=JobKind.DEDICATED, requested_start=15.0, start=20.0)
        assert r.dedicated_delay == 5.0
        on_time = record(kind=JobKind.DEDICATED, requested_start=20.0, start=20.0)
        assert on_time.dedicated_delay == 0.0

    def test_from_job(self):
        job = batch_job(3, submit=1.0, num=64, estimate=50.0)
        job.start_time = 11.0
        job.finish_time = 61.0
        job.ecc_count = 2
        r = JobRecord.from_job(job)
        assert r.job_id == 3 and r.num == 64
        assert r.wait == 10.0 and r.runtime == 50.0
        assert r.eccs_applied == 2

    def test_from_job_cancelled_while_running(self):
        job = batch_job(3, submit=1.0, num=64, estimate=50.0)
        job.start_time, job.finish_time = 11.0, 30.0
        assert not JobRecord.from_job(job).cancelled
        assert JobRecord.from_job(job, cancelled=True).cancelled

    def test_from_incomplete_job_rejected(self):
        with pytest.raises(ValueError, match="not completed"):
            JobRecord.from_job(batch_job(1))


class TestRunMetrics:
    def _metrics(self, records):
        return RunMetrics.from_records(
            records,
            algorithm="TEST",
            machine_size=320,
            utilization=0.8,
            makespan=1000.0,
        )

    def test_aggregates(self):
        m = self._metrics(
            [record(1, submit=0.0, start=10.0, finish=110.0),
             record(2, submit=0.0, start=30.0, finish=80.0)]
        )
        assert m.n_jobs == 2
        assert m.mean_wait == 20.0
        assert m.mean_runtime == 75.0
        assert m.slowdown == pytest.approx((20.0 + 75.0) / 75.0)
        assert m.mean_per_job_slowdown == pytest.approx(
            ((10 + 100) / 100 + (30 + 50) / 50) / 2
        )

    def test_empty_run(self):
        m = self._metrics([])
        assert m.mean_wait == 0.0
        assert m.slowdown == 1.0
        assert m.dedicated_on_time_rate == 1.0
        assert m.mean_dedicated_delay == 0.0

    def test_dedicated_extras(self):
        m = self._metrics(
            [
                record(1, kind=JobKind.DEDICATED, requested_start=10.0, start=10.0),
                record(2, kind=JobKind.DEDICATED, requested_start=10.0, start=40.0),
                record(3),  # batch, excluded from dedicated stats
            ]
        )
        assert len(m.dedicated_records()) == 2
        assert m.dedicated_on_time_rate == 0.5
        assert m.mean_dedicated_delay == 15.0

    def test_as_row_keys(self):
        row = self._metrics([record()]).as_row()
        assert {"utilization", "mean_wait", "slowdown", "makespan", "n_jobs"} <= set(row)

    def test_pickle_round_trip_keeps_record_types(self):
        m = self._metrics([record(1), record(2, cancelled=True)])
        again = pickle.loads(pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL))
        assert again == m
        assert [type(r) for r in again.records] == [JobRecord, JobRecord]
        assert again.records[1].cancelled and again.records[1].wait == 10.0

    def test_from_records_matches_reference(self):
        m = self._metrics(
            [record(1, submit=0.0, start=10.0, finish=110.0),
             record(2, kind=JobKind.DEDICATED, requested_start=5.0, start=8.0, finish=9.5),
             record(3, submit=3.0, start=3.0, finish=3.0)]
        )
        assert differences(m) == []


# ----------------------------------------------------------------------
# Every registry policy: the stored fold equals the record walk, bitwise
# ----------------------------------------------------------------------
FAULTS = FaultConfig(mtbf=40000.0, mttr=2000.0, seed=5)


@lru_cache(maxsize=None)
def _workload(commands: bool, dedicated: bool):
    config = GeneratorConfig(
        n_jobs=150,
        p_dedicated=0.3 if dedicated else 0.0,
        p_extend=0.3 if commands else 0.0,
        p_reduce=0.2 if commands else 0.0,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(11))


@pytest.mark.parametrize("inputs", ["rigid", "commands-faults"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_run_metrics_match_record_reference(algorithm, inputs):
    """``as_row()``, the response and slowdown means and the dedicated
    scalars equal the old per-read record walk, bit for bit."""
    scheduler = make_scheduler(algorithm)
    if inputs == "rigid":
        metrics = simulate(_workload(False, False), scheduler)
    else:
        workload = _workload(True, scheduler.handles_dedicated)
        metrics = simulate(workload, scheduler, faults=FAULTS)
    assert metrics.n_jobs > 0
    assert differences(metrics) == [], algorithm


@pytest.fixture(scope="module")
def cancelling_workloads():
    return {True: _cancelling_workload(0.3), False: _cancelling_workload(0.0)}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_dropped_records_build_none_and_keep_metrics(
    cancelling_workloads, monkeypatch, algorithm
):
    """A ``retain_records=False`` run builds no ``JobRecord`` and its
    ``RunMetrics`` equals the retaining run's, bit for bit, on input
    with ECCs, cancellations at submission and while running, and
    pset and job faults."""
    options = {key: value for key, value in SCENARIOS["faults"].items() if key != "decisions"}
    workload = cancelling_workloads[make_scheduler(algorithm).handles_dedicated]
    kept = simulate(workload, make_scheduler(algorithm), online=True, **options)

    def refuse(*args, **kwargs):
        raise AssertionError("a run that keeps no records built one")

    monkeypatch.setattr(JobRecord, "from_job", refuse)
    dropped = simulate(
        workload, make_scheduler(algorithm), online=True, retain_records=False, **options
    )
    assert dropped.records == [] and kept.records
    assert any(r.cancelled for r in kept.records) and kept.cancelled_records
    assert dropped == replace(kept, records=[])
    assert dropped.online == kept.online


@pytest.mark.parametrize("algorithm", ["EASY", "Hybrid-LOS-E", "Malleable-Backfill"])
@pytest.mark.parametrize("scenario", ["plain", "faults"])
def test_cancelled_while_running_ids_leave_when_jobs_end(cancelling_workloads, algorithm, scenario):
    """The runner forgets a cancelled running job once it finishes (or
    fails for good), so the set it pickles into every checkpoint holds
    only live jobs and is empty after the run."""
    options = {}
    if scenario == "faults":
        options = {key: value for key, value in SCENARIOS["faults"].items() if key != "decisions"}
    scheduler = make_scheduler(algorithm)
    runner = SimulationRunner(
        cancelling_workloads[scheduler.handles_dedicated], scheduler, **options
    )
    metrics = runner.run()
    assert any(r.cancelled for r in metrics.records)
    assert runner._cancelled_while_running == set()
