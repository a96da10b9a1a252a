"""Tests for queue-dynamics tracking."""

from __future__ import annotations

import pytest

from repro.metrics.queue_stats import QueueTracker
from repro.workload.job import Job


class TestQueueTracker:
    def test_single_job_rectangle(self):
        tracker = QueueTracker(start_time=0.0)
        tracker.on_enqueue(0.0, work=1000.0)
        tracker.on_dequeue(10.0, work=1000.0)
        summary = tracker.summary(until=20.0)
        # One job queued for 10 of 20 seconds.
        assert summary.mean_queue_length == pytest.approx(0.5)
        assert summary.max_queue_length == 1
        # Backlog 1000 proc·s for 10s of 20.
        assert summary.mean_backlog == pytest.approx(500.0)
        assert summary.max_backlog == 1000.0

    def test_overlapping_jobs(self):
        tracker = QueueTracker(start_time=0.0)
        tracker.on_enqueue(0.0, 100.0)
        tracker.on_enqueue(5.0, 200.0)
        tracker.on_dequeue(10.0, 100.0)
        tracker.on_dequeue(20.0, 200.0)
        summary = tracker.summary(until=20.0)
        # Length: 1 over [0,5), 2 over [5,10), 1 over [10,20).
        assert summary.mean_queue_length == pytest.approx((5 + 10 + 10) / 20)
        assert summary.max_queue_length == 2

    def test_work_change_adjusts_backlog(self):
        tracker = QueueTracker(start_time=0.0)
        tracker.on_enqueue(0.0, 100.0)
        tracker.on_work_changed(5.0, +100.0)  # ET on the queued job
        tracker.on_dequeue(10.0, 200.0)
        summary = tracker.summary(until=10.0)
        # Backlog 100 over [0,5), 200 over [5,10).
        assert summary.mean_backlog == pytest.approx((500 + 1000) / 10)
        assert summary.max_backlog == 200.0

    def test_negative_work_change_clamped(self):
        tracker = QueueTracker(start_time=0.0)
        tracker.on_enqueue(0.0, 50.0)
        tracker.on_work_changed(1.0, -500.0)
        summary = tracker.summary(until=2.0)
        assert summary.max_backlog == 50.0

    def test_empty(self):
        summary = QueueTracker(start_time=0.0).summary(until=10.0)
        assert summary.mean_queue_length == 0.0
        assert summary.max_queue_length == 0
        assert summary.mean_backlog == 0.0

    def test_horizon_before_last_observation_raises(self):
        # Integrating to t=5 would need the state at t=5, which the
        # O(1) tracker no longer holds once it has seen t=10.
        tracker = QueueTracker(start_time=0.0)
        tracker.on_enqueue(0.0, 10.0)
        tracker.on_dequeue(10.0, 10.0)
        with pytest.raises(ValueError, match="precedes the last observation"):
            tracker.summary(until=5.0)
        assert tracker.summary(until=10.0).mean_backlog == 10.0

    def test_max_queue_length_is_exact_on_long_runs(self):
        tracker = QueueTracker()
        total = 16384
        for i in range(total):
            tracker.on_enqueue(float(i), 1.0)
        summary = tracker.summary(until=float(total))
        assert summary.max_queue_length == total

    def test_str_is_informative(self):
        tracker = QueueTracker()
        tracker.on_enqueue(0.0, 10.0)
        text = str(tracker.summary(until=1.0))
        assert "queue" in text and "backlog" in text


class TestRunnerIntegration:
    def test_summary_attached_to_run_metrics(self, small_batch_workload):
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import simulate

        metrics = simulate(small_batch_workload, make_scheduler("EASY"))
        assert metrics.queue is not None
        assert metrics.queue.mean_queue_length >= 0.0
        assert metrics.queue.max_queue_length >= 1

    def test_zero_wait_run_has_zero_mean_queue(self):
        """A lone job that starts instantly spends no measurable time
        queued (enqueue and dequeue at the same instant)."""
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import simulate
        from tests.conftest import batch_job, make_workload

        workload = make_workload([batch_job(1, submit=0.0, num=32, estimate=100.0)])
        metrics = simulate(workload, make_scheduler("EASY"))
        assert metrics.queue is not None
        assert metrics.queue.mean_queue_length == 0.0

    def test_contention_shows_in_queue_stats(self):
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import simulate
        from tests.conftest import batch_job, make_workload

        jobs = [batch_job(i, submit=0.0, num=320, estimate=100.0) for i in range(1, 4)]
        metrics = simulate(make_workload(jobs), make_scheduler("FCFS"))
        assert metrics.queue is not None
        assert metrics.queue.max_queue_length == 3  # all queued at t=0
        # Jobs run back to back over [0,300]: queue holds 3,2,1,0 jobs
        # for ~100s each (minus the instantaneous first start).
        assert metrics.queue.mean_queue_length == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize(
        "job,ecc_time,expected",
        [
            # The ECC fires before the same-instant arrival: the
            # enqueue books the extended work, once.  Queued over
            # [10, 100] of a [0, 1200] run.
            (Job(2, 10.0, 32, 100.0), 10.0, (32 * 1100.0 * 90 / 1200, 32 * 1100.0)),
            # The ECC lands on a job already withdrawn at t=10; the
            # peak is t=0, before job 1 starts.
            (Job(2, 0.0, 32, 100.0, cancel_at=10.0), 20.0, (32 * 100.0 * 10 / 100, 35200.0)),
        ],
        ids=["before-arrival", "after-cancel"],
    )
    def test_ecc_on_a_job_in_no_queue_leaves_backlog_exact(self, job, ecc_time, expected):
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import simulate
        from repro.workload.ecc import ECC, ECCKind
        from tests.conftest import batch_job, make_workload

        workload = make_workload(
            [batch_job(1, submit=0.0, num=320, estimate=100.0), job],
            eccs=[ECC(job_id=2, issue_time=ecc_time, kind=ECCKind.EXTEND_TIME, amount=1000.0)],
        )
        metrics = simulate(workload, make_scheduler("EASY-E"))
        assert metrics.ecc_stats == {"applied-queued": 1}
        assert (metrics.queue.mean_backlog, metrics.queue.max_backlog) == pytest.approx(expected)

    def test_resource_ecc_on_a_queued_job_books_its_work(self, monkeypatch):
        """EP changes ``num``, not the estimate: the backlog must move by
        the change in ``num x estimate``, and the start must then
        dequeue exactly what was booked (no clamp at zero)."""
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import SimulationRunner
        from repro.metrics.queue_stats import QueueTracker
        from repro.workload.ecc import ECC, ECCKind
        from tests.conftest import batch_job, make_workload

        dequeues = []
        on_dequeue = QueueTracker.on_dequeue

        def recording(tracker, time, work):
            dequeues.append((tracker._backlog, work))
            on_dequeue(tracker, time, work)

        monkeypatch.setattr(QueueTracker, "on_dequeue", recording)
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=1000.0),
                batch_job(2, submit=0.0, num=32, estimate=1000.0),
            ],
            eccs=[ECC(job_id=2, issue_time=10.0, kind=ECCKind.EXTEND_PROCS, amount=64)],
        )
        metrics = SimulationRunner(
            workload, make_scheduler("EASY-E"), allow_resource_eccs=True
        ).run()
        assert metrics.ecc_stats == {"applied-queued": 1}
        # Job 2 waits over [0, 1000]: 32 x 1000 for 10 s, then 96 x 1000.
        expected = (32_000.0 * 10 + 96_000.0 * 990) / 2000
        assert metrics.queue.mean_backlog == pytest.approx(expected)
        assert dequeues[-1] == (96_000.0, 96_000.0)
        assert all(work <= backlog for backlog, work in dequeues)
