"""Tests for conservative backfill."""

from __future__ import annotations

from repro.cli import main
from repro.cluster.machine import Machine
from repro.core.conservative import ConservativeBackfill
from tests.conftest import batch_job
from tests.core.policy_harness import PolicyHarness, started_ids


class TestConservative:
    def test_starts_whatever_plans_now(self):
        harness = PolicyHarness(total=10).enqueue(
            batch_job(1, num=4), batch_job(2, submit=1.0, num=4)
        )
        started = harness.cycle_to_fixpoint(ConservativeBackfill())
        assert started_ids(started) == [1, 2]

    def test_backfills_only_when_no_reservation_delayed(self):
        harness = PolicyHarness(total=10)
        harness.run_job(batch_job(100, num=8, estimate=100.0))
        harness.enqueue(
            batch_job(1, num=6, estimate=50.0),  # planned at t=100
            batch_job(2, submit=1.0, num=2, estimate=100.0),  # ends exactly at 100
        )
        started = harness.cycle_to_fixpoint(ConservativeBackfill())
        assert started_ids(started) == [2]

    def test_denies_backfill_that_delays_any_queued_job(self):
        """Unlike EASY, job 3 may not delay job 2's reservation even
        though it would not delay the head."""
        harness = PolicyHarness(total=10)
        harness.run_job(batch_job(100, num=8, estimate=100.0))
        harness.enqueue(
            batch_job(1, num=6, estimate=10.0),  # head, planned at t=100
            batch_job(2, submit=1.0, num=4, estimate=10.0),  # planned at t=100 too
            # Job 3 fits extra capacity for the head (frec 4), so EASY
            # would start it; but it would collide with job 2's plan.
            batch_job(3, submit=2.0, num=2, estimate=500.0),
        )
        started = harness.cycle_to_fixpoint(ConservativeBackfill())
        assert 3 not in started_ids(started)

    def test_empty_queue(self):
        assert PolicyHarness(total=10).cycle_to_fixpoint(ConservativeBackfill()) == []

    def test_job_wider_than_online_capacity_waits_for_repair(self):
        """A pset outage must not crash the plan: the too-wide job takes
        no reservation until the repair, and narrower work still runs."""
        harness = PolicyHarness(total=10, granularity=2)
        harness.machine = Machine(total=10, granularity=2, track_placement=True)
        harness.machine.fail_unit(0)
        harness.enqueue(batch_job(1, num=10), batch_job(2, submit=1.0, num=4))
        assert started_ids(harness.cycle_to_fixpoint(ConservativeBackfill())) == [2]
        harness.machine.repair_unit(0)
        # Repaired: job 1 plans again, behind running job 2.
        assert harness.cycle_to_fixpoint(ConservativeBackfill()) == []


def test_cli_faulted_run_completes(capsys):
    """The reported crash spec: a 320-wide job queued during an outage."""
    argv = [
        "--algorithms", "CONSERVATIVE", "--jobs", "300", "--seed", "42",
        "--faults", "mtbf=40000,mttr=2000,seed=5", "--parallel", "1",
    ]
    assert main(argv) == 0
    assert "CONSERVATIVE" in capsys.readouterr().out
