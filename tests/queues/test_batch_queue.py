"""Tests for the FIFO batch queue (W^b)."""

from __future__ import annotations

import pickle

import pytest

from repro.queues.batch_queue import BatchQueue
from repro.workload.job import JobState
from tests.conftest import batch_job, dedicated_job


class TestFIFO:
    def test_push_and_head(self):
        queue = BatchQueue()
        a, b = batch_job(1, submit=10.0), batch_job(2, submit=20.0)
        queue.push(a)
        queue.push(b)
        assert queue.head is a
        assert queue.jobs() == [a, b]
        assert queue.tail() == [b]
        assert len(queue) == 2 and bool(queue)

    def test_push_resets_scount_and_queues(self):
        queue = BatchQueue()
        job = batch_job(1)
        job.scount = 5
        queue.push(job)
        assert job.scount == 0
        assert job.state is JobState.QUEUED

    def test_out_of_order_arrival_rejected(self):
        queue = BatchQueue()
        queue.push(batch_job(1, submit=100.0))
        with pytest.raises(ValueError, match="arrives before"):
            queue.push(batch_job(2, submit=50.0))

    def test_pop_head(self):
        queue = BatchQueue()
        a, b = batch_job(1, submit=1.0), batch_job(2, submit=2.0)
        queue.push(a)
        queue.push(b)
        assert queue.pop_head() is a
        assert queue.head is b

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            BatchQueue().pop_head()

    def test_empty_head_is_none(self):
        queue = BatchQueue()
        assert queue.head is None
        assert not queue


class TestPromotion:
    def test_push_head_jumps_the_queue(self):
        queue = BatchQueue()
        queue.push(batch_job(1, submit=10.0))
        promoted = dedicated_job(99, submit=5.0, requested_start=500.0)
        promoted.scount = 7  # Algorithm 3 sets scount = C_s
        queue.push_head(promoted)
        assert queue.head is promoted
        assert promoted.scount == 7  # push_head must NOT reset it
        queue.check_invariants(allow_promoted_head=True)

    def test_promoted_jobs_form_a_prefix(self):
        """Several promotions accumulate at the front (Algorithm 3
        applied repeatedly); the batch suffix stays FIFO."""
        queue = BatchQueue()
        queue.push(batch_job(1, submit=10.0))
        queue.push(batch_job(2, submit=20.0))
        queue.push_head(dedicated_job(90, submit=0.0, requested_start=100.0))
        queue.push_head(dedicated_job(91, submit=0.0, requested_start=200.0))
        queue.check_invariants()
        assert [j.job_id for j in queue.jobs()] == [91, 90, 1, 2]

    def test_invariant_check_catches_deep_violation(self):
        queue = BatchQueue()
        queue.push(batch_job(1, submit=10.0))
        queue.push(batch_job(2, submit=20.0))
        queue.push_head(dedicated_job(3, submit=1.0, requested_start=30.0))
        # Head promotion is fine...
        queue.check_invariants()
        # ...but a mid-queue FIFO violation is not.
        queue.jobs()[2].submit = 5.0
        with pytest.raises(AssertionError):
            queue.check_invariants()

    def test_dedicated_outside_prefix_detected(self):
        queue = BatchQueue()
        queue.push(batch_job(1, submit=10.0))
        # A dedicated job appended at the tail is not a legal
        # Algorithm 3 state (push itself does not police job kinds).
        queue.push(dedicated_job(2, submit=20.0, requested_start=50.0))
        with pytest.raises(AssertionError, match="prefix"):
            queue.check_invariants()


class TestRemoval:
    def test_remove_mid_queue(self):
        queue = BatchQueue()
        jobs = [batch_job(i, submit=float(i)) for i in range(1, 5)]
        for job in jobs:
            queue.push(job)
        queue.remove(jobs[2])
        assert [j.job_id for j in queue.jobs()] == [1, 2, 4]

    def test_remove_all_selected_set(self):
        queue = BatchQueue()
        jobs = [batch_job(i, submit=float(i)) for i in range(1, 6)]
        for job in jobs:
            queue.push(job)
        queue.remove_all([jobs[4], jobs[0]])  # order-independent
        assert [j.job_id for j in queue.jobs()] == [2, 3, 4]

    def test_remove_absent_rejected(self):
        queue = BatchQueue()
        queue.push(batch_job(1))
        with pytest.raises(ValueError, match="not in the batch queue"):
            queue.remove(batch_job(2))

    def test_contains_by_id(self):
        queue = BatchQueue()
        job = batch_job(7)
        queue.push(job)
        assert job in queue
        assert batch_job(8) not in queue


class TestSizeIndex:
    """The per-size token index behind ``iter_fitting``."""

    def _filled(self):
        queue = BatchQueue()
        jobs = [
            batch_job(1, submit=1.0, num=64),
            batch_job(2, submit=2.0, num=8),
            batch_job(3, submit=3.0, num=16),
            batch_job(4, submit=4.0, num=8),
            batch_job(5, submit=5.0, num=128),
        ]
        for job in jobs:
            queue.push(job)
        return queue, jobs

    def test_iter_fitting_is_queue_order_filtered(self):
        queue, _ = self._filled()
        assert [j.job_id for j in queue.iter_fitting(16)] == [2, 3, 4]
        assert [j.job_id for j in queue.iter_fitting(8)] == [2, 4]
        assert [j.job_id for j in queue.iter_fitting(200)] == [1, 2, 3, 4, 5]
        assert list(queue.iter_fitting(4)) == []
        queue.check_invariants()

    def test_iter_fitting_after_removal(self):
        queue, jobs = self._filled()
        queue.remove(jobs[1])  # job 2 (num=8)
        queue.pop_head()       # job 1 (num=64)
        assert [j.job_id for j in queue.iter_fitting(16)] == [3, 4]
        queue.check_invariants()

    def test_iter_fitting_sees_head_promotions(self):
        queue, _ = self._filled()
        promoted = dedicated_job(99, submit=0.0, num=8, requested_start=9.0)
        queue.push_head(promoted)
        assert [j.job_id for j in queue.iter_fitting(8)] == [99, 2, 4]
        queue.check_invariants(allow_promoted_head=True)

    def test_note_resize_moves_size_buckets(self):
        queue, jobs = self._filled()
        jobs[2].num = 8  # an RP shrank queued job 3 in place
        assert queue.note_resize(jobs[2])
        assert [j.job_id for j in queue.iter_fitting(8)] == [2, 3, 4]
        assert [j.job_id for j in queue.iter_fitting(15)] == [2, 3, 4]
        queue.check_invariants()

    def test_note_resize_absent_job_is_noop(self):
        queue, _ = self._filled()
        assert not queue.note_resize(batch_job(42, num=8))
        queue.check_invariants()

    def test_invariants_catch_missed_resize(self):
        queue, jobs = self._filled()
        jobs[2].num = 8  # mutated without note_resize: index is stale
        with pytest.raises(AssertionError, match="note_resize"):
            queue.check_invariants()

    def test_pickle_round_trip(self):
        queue, jobs = self._filled()
        queue.remove(jobs[3])
        clone = pickle.loads(pickle.dumps(queue))
        assert [j.job_id for j in clone.jobs()] == [j.job_id for j in queue.jobs()]
        assert [j.job_id for j in clone.iter_fitting(16)] == [
            j.job_id for j in queue.iter_fitting(16)
        ]
        clone.check_invariants()
