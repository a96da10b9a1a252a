"""Tests for job cancellation (SWF status-5 semantics)."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro.core.registry import make_scheduler
from repro.experiments.runner import SimulationRunner, simulate
from repro.obs.analytics import replay, validate_trace_file
from repro.obs.trace_io import read_trace
from repro.workload.job import Job, JobKind
from repro.workload.swf import SWFRecord
from tests.conftest import batch_job, make_workload, of_kind, run_traced


def cancellable(job_id, submit=0.0, num=320, estimate=100.0, cancel_at=None, **kwargs):
    return Job(
        job_id=job_id, submit=submit, num=num, estimate=estimate,
        cancel_at=cancel_at, **kwargs,
    )


class TestQueuedCancellation:
    def test_queued_job_withdrawn(self):
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0),  # blocks machine
                cancellable(2, submit=0.0, cancel_at=30.0, estimate=50.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("EASY"))
        assert metrics.n_jobs == 1
        assert metrics.n_cancelled == 1
        record = metrics.cancelled_records[0]
        assert record.job_id == 2
        assert record.cancelled_at == 30.0
        assert record.queued_for == 30.0

    def test_cancellation_frees_queue_for_later_jobs(self):
        """A cancelled 320-proc job must not block jobs behind it."""
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0),
                cancellable(2, submit=10.0, num=320, estimate=1000.0, cancel_at=50.0),
                batch_job(3, submit=20.0, num=320, estimate=10.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("FCFS"))
        starts = {r.job_id: r.start for r in metrics.records}
        # FCFS: without the cancellation, job 3 would wait for job 2's
        # 1000s run; with it, job 3 starts right after job 1.
        assert starts[3] == 100.0

    def test_dedicated_job_cancellation(self):
        job = Job(
            job_id=1, submit=0.0, num=64, estimate=100.0,
            kind=JobKind.DEDICATED, requested_start=500.0, cancel_at=200.0,
        )
        metrics = simulate(make_workload([job]), make_scheduler("Hybrid-LOS"))
        assert metrics.n_jobs == 0
        assert metrics.n_cancelled == 1

    def test_trace_records_cancellation(self):
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0),
                cancellable(2, submit=0.0, cancel_at=30.0),
            ]
        )
        _, records = run_traced(workload, make_scheduler("EASY"))
        cancels = of_kind(records, "cancel")
        assert len(cancels) == 1 and cancels[0].data["was"] == "queued"


class TestRunningCancellation:
    def test_running_job_terminated_at_cancel_instant(self):
        workload = make_workload([cancellable(1, cancel_at=40.0, estimate=100.0)])
        metrics = simulate(workload, make_scheduler("EASY"))
        record = metrics.records[0]
        assert record.finish == 40.0
        assert record.cancelled
        assert metrics.n_cancelled == 0  # it ran; not a queue withdrawal

    def test_capacity_released_immediately(self):
        workload = make_workload(
            [
                cancellable(1, cancel_at=40.0, estimate=1000.0),
                batch_job(2, submit=0.0, num=320, estimate=10.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("EASY"))
        starts = {r.job_id: r.start for r in metrics.records}
        assert starts[2] == 40.0

    def test_cancel_after_natural_finish_is_noop(self):
        workload = make_workload([cancellable(1, cancel_at=500.0, estimate=100.0)])
        metrics = simulate(workload, make_scheduler("EASY"))
        record = metrics.records[0]
        assert record.finish == 100.0
        assert not record.cancelled


class TestValidationAndState:
    def test_cancel_before_submit_rejected(self):
        with pytest.raises(ValueError, match="precedes submit"):
            Job(job_id=1, submit=100.0, num=32, estimate=10.0, cancel_at=50.0)

    def test_copy_preserves_cancel_at(self):
        job = cancellable(1, cancel_at=77.0)
        assert job.copy_for_run().cancel_at == 77.0

    def test_cancelled_state_reached(self):
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0),
                cancellable(2, submit=0.0, cancel_at=30.0),
            ]
        )
        metrics = SimulationRunner(workload, make_scheduler("EASY")).run()
        assert [r.job_id for r in metrics.cancelled_records] == [2]
        assert [r.job_id for r in metrics.records] == [1]

    def test_cancel_at_the_submission_instant_keeps_every_job_accounted(self):
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0),
                cancellable(2, submit=0.0, cancel_at=0.0, num=32),
                cancellable(3, submit=5.0, cancel_at=5.0, num=32),
            ]
        )
        metrics = simulate(workload, make_scheduler("EASY"))
        finished = {r.job_id for r in metrics.records}
        cancelled = {r.job_id for r in metrics.cancelled_records}
        assert finished | cancelled == {1, 2, 3} and not finished & cancelled


class TestCancelAtSubmission:
    """``cancel_at == submit``: withdrawn once queued, before any cycle."""

    @pytest.mark.parametrize("name", ["EASY", "FCFS", "Hybrid-LOS-E"])
    def test_cancelled_jobs_never_start(self, name):
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0),
                cancellable(2, submit=0.0, cancel_at=0.0, num=32),
                cancellable(3, submit=5.0, cancel_at=5.0, num=32),
            ]
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            metrics = SimulationRunner(workload, make_scheduler(name), trace_out=path).run()
            validate_trace_file(str(path), metrics)
            records = read_trace(path).records
        assert [r.job_id for r in metrics.records] == [1]
        assert [(r.job_id, r.cancelled_at) for r in metrics.cancelled_records] == [
            (2, 0.0), (3, 5.0)
        ]
        assert replay(records, {"machine_size": 320}).findings == []
        for job_id, when in ((2, 0.0), (3, 5.0)):
            mine = [r for r in records if r.data.get("job") == job_id]
            assert [(r.time, r.kind) for r in mine] == [(when, "arrive"), (when, "cancel")]
            assert mine[1].data["was"] == "queued"

    def test_cancelled_job_state(self):
        job = cancellable(2, submit=0.0, cancel_at=0.0, num=32)
        runner = SimulationRunner(make_workload([job]), make_scheduler("EASY"))
        metrics = runner.run()
        assert metrics.n_jobs == 0 and metrics.n_cancelled == 1
        assert metrics.cancelled_records[0].queued_for == 0.0

    def test_swf_status5_with_zero_wait(self):
        lines = [
            "1 0 0 100 320 -1 -1 320 100 -1 1",
            "2 0 0 -1 32 -1 -1 32 500 -1 5",  # withdrawn at its submission
            "3 5 0 -1 32 -1 -1 32 500 -1 5",
        ]
        jobs = [SWFRecord.parse(line).to_job() for line in lines]
        assert [job.cancel_at for job in jobs] == [None, 0.0, 5.0]
        metrics = simulate(make_workload(jobs), make_scheduler("EASY"))
        assert [r.job_id for r in metrics.records] == [1]
        assert [r.job_id for r in metrics.cancelled_records] == [2, 3]


class TestSWFStatus5:
    def test_cancelled_in_queue_maps_to_cancel_at(self):
        # status 5, never ran: wait 300s then withdrawn.
        record = SWFRecord(
            job_id=9, submit=1000.0, wait=300.0, run_time=-1,
            requested_procs=64, requested_time=600.0, status=5,
        )
        job = record.to_job()
        assert job.cancel_at == 1300.0
        assert job.estimate == 600.0

    def test_cancelled_without_estimate_gets_placeholder(self):
        record = SWFRecord(
            job_id=9, submit=0.0, wait=50.0, run_time=-1, requested_procs=8, status=5
        )
        job = record.to_job()
        assert job.cancel_at == 50.0
        assert job.estimate == 1.0

    def test_cancelled_while_running_keeps_runtime(self):
        # status 5 but it ran 200s: simulate as a normal 200s job.
        record = SWFRecord(
            job_id=9, submit=0.0, wait=10.0, run_time=200.0,
            requested_procs=8, requested_time=600.0, status=5,
        )
        job = record.to_job()
        assert job.cancel_at is None
        assert job.actual == 200.0

    def test_completed_job_unaffected(self):
        record = SWFRecord(
            job_id=1, submit=0.0, run_time=100.0, requested_procs=8,
            requested_time=120.0, status=1,
        )
        assert record.to_job().cancel_at is None

    def test_status5_trace_simulates_end_to_end(self):
        lines = [
            "1 0 0 100 320 -1 -1 320 100 -1 1",
            "2 10 40 -1 320 -1 -1 320 500 -1 5",  # cancelled at t=50
            "3 20 -1 30 320 -1 -1 320 30 -1 1",
        ]
        jobs = [SWFRecord.parse(line).to_job() for line in lines]
        metrics = simulate(make_workload(jobs), make_scheduler("EASY"))
        assert metrics.n_jobs == 2
        assert metrics.n_cancelled == 1
        starts = {r.job_id: r.start for r in metrics.records}
        assert starts[3] == 100.0  # not blocked by the cancelled job


class TestECCOnDedicatedQueue:
    """ECCs apply to dedicated jobs waiting in W^d too (§III-C: 'ECCs
    can be issued for both batch and dedicated jobs')."""

    def test_et_on_queued_dedicated_job(self):
        from repro.workload.ecc import ECC, ECCKind

        job = Job(
            job_id=1, submit=0.0, num=320, estimate=100.0,
            kind=JobKind.DEDICATED, requested_start=500.0,
        )
        ecc = ECC(job_id=1, issue_time=100.0, kind=ECCKind.EXTEND_TIME, amount=50.0)
        workload = make_workload([job], eccs=[ecc])
        metrics = simulate(workload, make_scheduler("Hybrid-LOS-E"))
        record = metrics.records[0]
        assert record.start == 500.0
        assert record.runtime == 150.0  # extended while queued in W^d

    def test_rt_on_running_dedicated_job(self):
        from repro.workload.ecc import ECC, ECCKind

        job = Job(
            job_id=1, submit=0.0, num=320, estimate=100.0,
            kind=JobKind.DEDICATED, requested_start=50.0,
        )
        ecc = ECC(job_id=1, issue_time=80.0, kind=ECCKind.REDUCE_TIME, amount=60.0)
        workload = make_workload([job], eccs=[ecc])
        metrics = simulate(workload, make_scheduler("Hybrid-LOS-E"))
        record = metrics.records[0]
        assert record.start == 50.0
        assert record.finish == 90.0  # 50+100-60
