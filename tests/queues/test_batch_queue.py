"""Tests for the FIFO batch queue (W^b)."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.queues.batch_queue import BatchQueue
from repro.workload.job import Job, JobState
from tests.conftest import batch_job, dedicated_job


class TestFIFO:
    def test_push_and_head(self):
        queue = BatchQueue()
        a, b = batch_job(1, submit=10.0), batch_job(2, submit=20.0)
        queue.push(a)
        queue.push(b)
        assert queue.head is a
        assert queue.jobs() == [a, b]
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

    def test_remove_head(self):
        queue = BatchQueue()
        a, b = batch_job(1, submit=1.0), batch_job(2, submit=2.0)
        queue.push(a)
        queue.push(b)
        queue.remove(a)
        assert queue.head is b

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
        for job in (jobs[4], jobs[0]):  # order-independent
            queue.remove(job)
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


def reference_backfill(queue, max_num, now, reservations):
    """The plain queue-order scan ``first_backfill`` must reproduce."""
    attempts = 0
    for job in queue.jobs():
        if job.num > max_num:
            continue
        attempts += 1
        if all(job.num <= frec or now + job.estimate <= fret for fret, frec in reservations):
            return job, attempts
    return None, attempts


#: Passes every job: the spare capacity covers any size.
ANY = ((0.0, 10**9),)
#: Passes no job: no spare capacity, and the reservation starts now.
NONE = ((0.0, 0),)


class TestSizeIndex:
    """The per-size buckets behind ``first_backfill``."""

    def _filled(self):
        queue = BatchQueue()
        jobs = [
            batch_job(1, submit=1.0, num=64),
            batch_job(2, submit=2.0, num=8, estimate=50.0),
            batch_job(3, submit=3.0, num=16, estimate=20.0),
            batch_job(4, submit=4.0, num=8, estimate=10.0),
            batch_job(5, submit=5.0, num=128),
        ]
        for job in jobs:
            queue.push(job)
        return queue, jobs

    def test_first_backfill_is_queue_order_filtered(self):
        queue, _ = self._filled()
        assert queue.first_backfill(16, 0.0, ANY) == (queue.jobs()[1], 1)
        assert queue.first_backfill(200, 0.0, ANY) == (queue.jobs()[0], 1)
        assert queue.first_backfill(16, 0.0, NONE) == (None, 3)
        assert queue.first_backfill(4, 0.0, ANY) == (None, 0)
        # Size 8 fits the spare processors; 16 must end by t=30.
        job, attempts = queue.first_backfill(16, 5.0, ((30.0, 8),))
        assert (job.job_id, attempts) == (2, 1)
        # Nothing fits the spare processors: the first to end by t=25.
        job, attempts = queue.first_backfill(16, 5.0, ((25.0, 0),))
        assert (job.job_id, attempts) == (3, 2)
        # Two reservations: the earlier start binds both sizes.
        job, attempts = queue.first_backfill(16, 5.0, ((100.0, 0), (15.0, 4)))
        assert (job.job_id, attempts) == (4, 3)
        queue.check_invariants()

    def test_first_backfill_after_removal(self):
        queue, jobs = self._filled()
        queue.remove(jobs[1])  # job 2 (num=8)
        queue.remove(jobs[0])  # job 1 (num=64)
        job, attempts = queue.first_backfill(16, 0.0, ((15.0, 0),))
        assert (job.job_id, attempts) == (4, 2)
        queue.check_invariants()

    def test_first_backfill_sees_head_promotions(self):
        queue, _ = self._filled()
        promoted = dedicated_job(99, submit=0.0, num=8, requested_start=9.0)
        queue.push_head(promoted)
        assert queue.first_backfill(8, 0.0, ANY) == (promoted, 1)
        queue.check_invariants(allow_promoted_head=True)

    def test_reindex_moves_size_buckets(self):
        queue, jobs = self._filled()
        jobs[2].num = 8  # an RP shrank queued job 3 in place
        queue.reindex(jobs[2])
        assert queue.first_backfill(8, 0.0, NONE) == (None, 3)
        assert queue.first_backfill(15, 0.0, NONE) == (None, 3)
        queue.check_invariants()

    def test_reindex_tracks_estimates(self):
        queue, jobs = self._filled()
        jobs[3].estimate = 5.0  # an RT shortened queued job 4 in place
        queue.reindex(jobs[3])
        job, attempts = queue.first_backfill(16, 0.0, ((5.0, 0),))
        assert (job.job_id, attempts) == (4, 3)
        queue.check_invariants()

    def test_reindex_absent_job_is_noop(self):
        queue, _ = self._filled()
        queue.reindex(batch_job(42, num=8))
        assert len(queue) == 5
        queue.check_invariants()

    def test_invariants_catch_missed_resize(self):
        queue, jobs = self._filled()
        jobs[2].num = 8  # mutated without reindex: index is stale
        with pytest.raises(AssertionError, match="reindex"):
            queue.check_invariants()

    def test_invariants_catch_missed_estimate_change(self):
        queue, jobs = self._filled()
        jobs[2].estimate = 7.0  # mutated without reindex: column is stale
        with pytest.raises(AssertionError, match="cached estimate"):
            queue.check_invariants()

    def test_pickle_round_trip(self):
        queue, jobs = self._filled()
        queue.remove(jobs[3])
        clone = pickle.loads(pickle.dumps(queue))
        assert [j.job_id for j in clone.jobs()] == [j.job_id for j in queue.jobs()]
        for reservations in (ANY, NONE, ((25.0, 8),)):
            picked, attempts = clone.first_backfill(16, 5.0, reservations)
            expected, expected_attempts = queue.first_backfill(16, 5.0, reservations)
            assert attempts == expected_attempts
            assert getattr(picked, "job_id", None) == getattr(expected, "job_id", None)
        clone.check_invariants()


#: Sizes at the paper's 32-processor granularity plus odd ones.
SIZES = st.sampled_from([1, 8, 32, 64, 96, 128, 160, 192, 224, 256, 288, 320])
#: A few decimal values whose sums round, so ``now + estimate == fret``
#: ties (and near-ties) against exactly computed ``fret`` values occur.
ESTIMATES = st.sampled_from([0.2, 0.7, 1.0, 3.3, 100.0, 250.5, 1e6])
NOWS = st.sampled_from([0.0, 0.1, 1e9 + 0.1, 12345.678])


class TestFirstBackfillMatchesScan:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_reference_scan(self, data):
        queue = BatchQueue()
        live = []
        next_id = 0
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            op = data.draw(st.sampled_from(["push", "push", "push", "head", "remove", "change"]))
            if op in ("push", "head") or not live:
                next_id += 1
                job = Job(
                    job_id=next_id,
                    submit=0.0,
                    num=data.draw(SIZES),
                    estimate=data.draw(ESTIMATES),
                )
                if op == "head":
                    queue.push_head(job)
                else:
                    queue.push(job)
                live.append(job)
            elif op == "remove":
                job = data.draw(st.sampled_from(live))
                queue.remove(job)
                live.remove(job)
            else:
                job = data.draw(st.sampled_from(live))
                if data.draw(st.booleans()):
                    job.num = data.draw(SIZES)
                else:
                    job.estimate = data.draw(ESTIMATES)
                queue.reindex(job)
            queue.check_invariants(allow_promoted_head=False)

            now = data.draw(NOWS)
            reservations = []
            for _ in range(data.draw(st.integers(1, 2))):
                source = data.draw(st.sampled_from(["job", "estimate", "never"]))
                if source == "job" and live:
                    # A start exactly where some job would end.
                    fret = now + data.draw(st.sampled_from(live)).estimate
                elif source == "never":
                    fret = math.inf
                else:
                    fret = now + data.draw(ESTIMATES)
                reservations.append((fret, data.draw(st.integers(0, 320))))
            max_num = data.draw(st.integers(0, 330))
            picked, attempts = queue.first_backfill(max_num, now, reservations)
            expected, expected_attempts = reference_backfill(
                queue, max_num, now, reservations
            )
            assert picked is expected
            assert attempts == expected_attempts


class TestAnyFitsMatchesScan:
    """``any_fits`` answers from the size buckets and the window edge
    token; it must agree with a plain scan of the window."""

    def test_window_edge(self):
        queue = BatchQueue()
        for job_id, num in enumerate([64, 128, 8, 32], start=1):
            queue.push(batch_job(job_id, submit=float(job_id), num=num))
        assert not queue.any_fits(32, lookahead=2)
        assert queue.any_fits(32, lookahead=3)
        assert queue.any_fits(32)
        assert not queue.any_fits(4)
        assert not BatchQueue().any_fits(320)

    @pytest.mark.parametrize("lookahead", [0, -1])
    def test_lookahead_below_one_rejected(self, lookahead):
        queue = BatchQueue()
        queue.push(batch_job(1, num=8))
        with pytest.raises(ValueError, match="lookahead must be at least 1"):
            queue.any_fits(320, lookahead=lookahead)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference_scan(self, data):
        queue = BatchQueue()
        live = []
        evicted = []
        clock = 0.0
        next_id = 0
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            op = data.draw(
                st.sampled_from(["push", "push", "push", "head", "requeue", "remove", "change"])
            )
            clock += data.draw(st.sampled_from([0.0, 1.0]))
            if op == "requeue" and evicted:
                job = evicted.pop(data.draw(st.integers(0, len(evicted) - 1)))
                queue.push_requeue(job, clock)
                live.append(job)
            elif op in ("remove", "change") and live:
                job = data.draw(st.sampled_from(live))
                if op == "remove":
                    queue.remove(job)
                    live.remove(job)
                    evicted.append(job)
                else:
                    if data.draw(st.booleans()):
                        job.num = data.draw(SIZES)
                    else:
                        job.estimate = data.draw(ESTIMATES)
                    queue.reindex(job)
            else:
                next_id += 1
                num, estimate = data.draw(SIZES), data.draw(ESTIMATES)
                if op == "head":
                    # Algorithm 3's promoted dedicated prefix.
                    job = dedicated_job(next_id, num=num, estimate=estimate,
                                        requested_start=clock)
                    queue.push_head(job)
                else:
                    job = batch_job(next_id, submit=clock, num=num, estimate=estimate)
                    queue.push(job)
                live.append(job)
            queue.check_invariants()

            jobs = queue.jobs()
            free = data.draw(st.integers(0, 330), label="free")
            for lookahead in [*range(1, 61), None]:
                window = jobs if lookahead is None else jobs[:lookahead]
                expected = any(job.num <= free for job in window)
                assert queue.any_fits(free, lookahead) is expected, (free, lookahead)
