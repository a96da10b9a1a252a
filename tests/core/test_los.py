"""Tests for the LOS baseline [7]."""

from __future__ import annotations

from repro.core.delayed_los import DelayedLOS
from repro.core.registry import make_scheduler
from tests.conftest import batch_job
from tests.core.policy_harness import PolicyHarness, started_ids


def los():
    return make_scheduler("LOS")


class TestAggressiveHeadStart:
    def test_head_starts_right_away_when_it_fits(self):
        """The behaviour Delayed-LOS improves on: LOS takes
        Alternative-(a) of Figure 2 and wastes 3 processors."""
        harness = PolicyHarness(total=10).enqueue(
            batch_job(1, num=7),
            batch_job(2, submit=1.0, num=4),
            batch_job(3, submit=2.0, num=6),
        )
        started = harness.cycle_to_fixpoint(los())
        assert started_ids(started) == [1]
        assert harness.machine.used == 7  # not the achievable 10

    def test_consecutive_heads_drain(self):
        harness = PolicyHarness(total=10).enqueue(
            batch_job(1, num=4), batch_job(2, submit=1.0, num=4)
        )
        assert started_ids(harness.cycle_to_fixpoint(los())) == [1, 2]


class TestReservation:
    def test_blocked_head_gets_reservation_and_holes_fill(self):
        harness = PolicyHarness(total=10)
        harness.run_job(batch_job(100, num=8, estimate=100.0))
        harness.enqueue(
            batch_job(1, num=6, estimate=50.0),
            batch_job(2, submit=1.0, num=2, estimate=30.0),
        )
        started = harness.cycle_to_fixpoint(los())
        assert started_ids(started) == [2]

    def test_fill_never_delays_the_reservation(self):
        harness = PolicyHarness(total=10)
        harness.run_job(batch_job(100, num=5, estimate=100.0))
        harness.enqueue(
            batch_job(1, num=7, estimate=50.0),  # frec = 3
            batch_job(2, submit=1.0, num=5, estimate=500.0),  # would overrun
        )
        assert harness.cycle_to_fixpoint(los()) == []


class TestEquivalenceWithDelayedLOS:
    def test_los_is_delayed_los_with_cs_zero(self):
        assert isinstance(los(), DelayedLOS)
        assert los().max_skip_count == 0

    def test_name(self):
        assert los().name == "LOS"
        assert make_scheduler("LOS-E").name == "LOS-E"
