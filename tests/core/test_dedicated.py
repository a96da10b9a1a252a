"""Tests for EASY-D and LOS-D (dedicated-queue baselines)."""

from __future__ import annotations

from repro.core.base import REASON_FREEZE_WINDOW, REASON_RESERVATION
from repro.core.easy import EasyBackfill
from repro.core.hybrid_los import HybridLOS
from repro.core.registry import make_scheduler
from tests.conftest import batch_job, dedicated_job
from tests.core.policy_harness import PolicyHarness, started_ids


def los_d():
    return make_scheduler("LOS-D")


def easy_d():
    return EasyBackfill(dedicated=True)


class TestLOSDedicated:
    def test_is_hybrid_with_cs_zero(self):
        scheduler = los_d()
        assert isinstance(scheduler, HybridLOS)
        assert scheduler.max_skip_count == 0
        assert scheduler.handles_dedicated

    def test_head_starts_right_away_around_dedicated(self):
        """LOS aggressiveness survives the -D extension: a fitting
        batch head starts immediately (scount 0 >= C_s = 0)."""
        harness = PolicyHarness(total=10, now=0.0)
        harness.enqueue(dedicated_job(50, submit=0.0, num=8, requested_start=100.0))
        harness.enqueue(
            batch_job(1, num=7),
            batch_job(2, submit=1.0, num=4, estimate=50.0),
            batch_job(3, submit=2.0, num=6, estimate=50.0),
        )
        started = harness.cycle_to_fixpoint(los_d())
        # Aggressive: head (7) first, unlike Hybrid-LOS which can skip it.
        assert started_ids(started)[0] == 1

    def test_due_dedicated_promotion(self):
        harness = PolicyHarness(total=10, now=100.0)
        harness.enqueue(dedicated_job(1, submit=0.0, num=6, requested_start=100.0))
        started = harness.cycle_to_fixpoint(los_d())
        assert started_ids(started) == [1]

    def test_name(self):
        assert los_d().name == "LOS-D"
        assert make_scheduler("LOS-DE").name == "LOS-DE"


class TestEasyBackfillDedicated:
    def test_plain_easy_without_dedicated_jobs(self):
        harness = PolicyHarness(total=10).enqueue(batch_job(1, num=7))
        assert started_ids(harness.cycle_to_fixpoint(easy_d())) == [1]

    def test_head_blocked_by_dedicated_reservation(self):
        """The head fits capacity but would overrun the dedicated
        reservation: it must wait."""
        harness = PolicyHarness(total=10, now=0.0)
        harness.enqueue(dedicated_job(50, submit=0.0, num=8, requested_start=100.0))
        harness.enqueue(batch_job(1, num=4, estimate=500.0))  # frec = 2 < 4
        assert harness.cycle_to_fixpoint(easy_d()) == []

    def test_head_ending_before_dedicated_start_runs(self):
        harness = PolicyHarness(total=10, now=0.0)
        harness.enqueue(dedicated_job(50, submit=0.0, num=8, requested_start=100.0))
        harness.enqueue(batch_job(1, num=4, estimate=50.0))
        assert started_ids(harness.cycle_to_fixpoint(easy_d())) == [1]

    def test_backfill_respects_both_shadow_and_dedicated(self):
        harness = PolicyHarness(total=10, now=0.0)
        harness.run_job(batch_job(100, num=8, estimate=50.0))
        harness.enqueue(dedicated_job(50, submit=0.0, num=8, requested_start=100.0))
        harness.enqueue(
            batch_job(1, num=4, estimate=500.0),  # capacity-blocked head
            batch_job(2, submit=1.0, num=2, estimate=30.0),  # fits both constraints
            batch_job(3, submit=2.0, num=2, estimate=400.0),  # violates dedicated
        )
        started = harness.cycle_to_fixpoint(easy_d())
        assert started_ids(started) == [2]

    def test_conservative_backfill_when_head_dedicated_blocked(self):
        """When the head is blocked only by the dedicated reservation,
        only jobs ending before the dedicated start may pass it."""
        harness = PolicyHarness(total=10, now=0.0)
        harness.enqueue(dedicated_job(50, submit=0.0, num=8, requested_start=100.0))
        harness.enqueue(
            batch_job(1, num=4, estimate=500.0),  # blocked by reservation
            batch_job(2, submit=1.0, num=2, estimate=60.0),  # ends by t=60 < 100
            batch_job(3, submit=2.0, num=2, estimate=200.0),  # would overrun
        )
        started = harness.cycle_to_fixpoint(easy_d())
        assert started_ids(started) == [2]

    def test_due_dedicated_promotion_and_start(self):
        harness = PolicyHarness(total=10, now=100.0)
        harness.enqueue(batch_job(1, submit=0.0, num=4))
        harness.enqueue(dedicated_job(2, submit=0.0, num=6, requested_start=100.0))
        started = harness.cycle_to_fixpoint(easy_d())
        assert started_ids(started)[0] == 2  # dedicated jumps the queue

    def test_head_overrunning_freeze_is_explained_and_passed(self):
        """The head fits but would overrun the dedicated freeze: it is
        explained as ``freeze-window``, and the only job started is
        one that ends by the dedicated start."""
        harness = PolicyHarness(total=10, now=0.0)
        harness.enqueue(dedicated_job(50, submit=0.0, num=8, requested_start=100.0))
        harness.enqueue(
            batch_job(1, num=4, estimate=500.0),  # fits, overruns fret = 100
            batch_job(2, submit=1.0, num=2, estimate=200.0),  # would overrun
            batch_job(3, submit=2.0, num=2, estimate=100.0),  # ends at fret
        )
        scheduler = easy_d()
        explained = []
        ctx = harness.context()
        ctx.explain = lambda job, reason: explained.append((job.job_id, reason))
        decision = scheduler.cycle(ctx)
        assert started_ids(decision.starts) == [3]
        assert explained == [(1, REASON_FREEZE_WINDOW), (2, REASON_RESERVATION)]
        harness.apply(decision)
        assert harness.cycle_to_fixpoint(scheduler) == []

    def test_handles_dedicated_flag(self):
        assert easy_d().handles_dedicated
        assert not EasyBackfill().handles_dedicated
