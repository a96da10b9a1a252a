"""Same-instant event semantics of the runner.

The EventPriority ordering (FINISH < ECC < ARRIVAL < TIMER < SCHEDULE)
encodes observable scheduling behaviour; these tests pin each pairwise
interaction at a shared timestamp.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.registry import make_scheduler
from repro.experiments.runner import SimulationRunner, simulate
from repro.workload.ecc import ECC, ECCKind
from tests.conftest import batch_job, dedicated_job, make_workload, of_kind, run_traced


class TestFinishBeforeArrival:
    def test_capacity_released_is_visible_to_same_instant_arrival(self):
        """Job 1 finishes at exactly t=100 when job 2 arrives: job 2
        must start immediately (FINISH fires before ARRIVAL/SCHEDULE)."""
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0),
                batch_job(2, submit=100.0, num=320, estimate=50.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("EASY"))
        starts = {r.job_id: r.start for r in metrics.records}
        assert starts[2] == 100.0


class TestECCBeforeSchedule:
    def test_same_instant_reduction_visible_to_scheduler(self):
        """An RT landing exactly when the scheduler would run shortens
        the running job before any decision is made."""
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0),
                batch_job(2, submit=50.0, num=320, estimate=10.0),
            ],
            eccs=[ECC(job_id=1, issue_time=50.0, kind=ECCKind.REDUCE_TIME, amount=99.0)],
        )
        metrics = simulate(workload, make_scheduler("EASY-E"))
        finishes = {r.job_id: r.finish for r in metrics.records}
        starts = {r.job_id: r.start for r in metrics.records}
        # The RT clamps job 1 to terminate at t=50; job 2 (arriving at
        # the same instant) starts right away.
        assert finishes[1] == 50.0
        assert starts[2] == 50.0


class TestTimerBeforeSchedule:
    def test_dedicated_start_exactly_at_arrival_instant(self):
        """A dedicated job whose requested start equals another job's
        arrival time is promoted in the same scheduling cycle."""
        workload = make_workload(
            [
                dedicated_job(1, submit=0.0, num=320, estimate=50.0, requested_start=100.0),
                batch_job(2, submit=100.0, num=320, estimate=10.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("Hybrid-LOS"))
        starts = {r.job_id: r.start for r in metrics.records}
        assert starts[1] == 100.0  # rigid start honoured exactly
        assert starts[2] == 150.0


class TestCycleDeduplication:
    def test_many_same_instant_arrivals_one_cycle(self):
        """N arrivals at one instant trigger one scheduling cycle, not
        N (scount must advance once per instant)."""
        jobs = [batch_job(i, submit=0.0, num=224, estimate=100.0) for i in range(1, 6)]
        workload = make_workload(jobs)
        _, records = run_traced(workload, make_scheduler("Delayed-LOS"))
        # Exactly one job fits at t=0 (224 <= 320 but 2x224 > 320).
        t0_starts = [r for r in of_kind(records, "start") if r.time == 0.0]
        assert len(t0_starts) == 1
        # Head-of-queue scount advanced at most once at t=0: with C_s=7
        # the head cannot have been force-started before 7 cycles.
        starts = sorted(r.time for r in of_kind(records, "start"))
        assert starts == [0.0, 100.0, 200.0, 300.0, 400.0]

    def test_finish_and_arrival_share_one_cycle(self):
        """FINISH at t releases capacity, ARRIVAL at t adds a job; both
        are served by a single cycle at t."""
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=160, estimate=100.0),
                batch_job(2, submit=100.0, num=160, estimate=10.0),
                batch_job(3, submit=100.0, num=160, estimate=10.0),
            ]
        )
        _, records = run_traced(workload, make_scheduler("EASY"))
        starts = {r.data["job"]: r.time for r in of_kind(records, "start")}
        # At t=100: job 1's 160 procs release; jobs 2 and 3 both fit.
        assert starts[2] == 100.0 and starts[3] == 100.0

    #: SHA-256 of the trace records after the header (whose meta names
    #: the version), per policy.  EASY-D and Hybrid-LOS start the
    #: promoted dedicated job before job 2; LOS-D starts job 2 first;
    #: Hybrid-LOS(-E) promotes with scount 7.
    TWO_OWED_BODIES = {
        "EASY-D": "37cee4d4549d1be1a5e7af759cd4f9c02b8abb01735798f7265dc3b0b60676e8",
        "LOS-D": "4449f4fbf9cd5c921b15b68f30de17240a5a4a4c1353ce7148365056fe52e765",
        "Hybrid-LOS": "9a199e74e60db28c9d8bdf76bd54a8243a8bc74251b03687192a46065a560e5a",
        "Hybrid-LOS-E": "9a199e74e60db28c9d8bdf76bd54a8243a8bc74251b03687192a46065a560e5a",
    }

    @pytest.mark.parametrize("algorithm", sorted(TWO_OWED_BODIES))
    def test_timer_cycle_then_finish_owes_a_second_cycle(self, tmp_path, algorithm):
        """Two cycles owed at one instant.  At t=100 the arrivals of
        jobs 2 and 3 request a cycle; the ded-start timer then runs a
        cycle directly, which clears the per-instant mark while that
        request is still owed.  The cycle starts job 2, whose zero
        runtime finishes it at t=100, and the finish requests a cycle
        again.  Both owed cycles fire: 12 events, where a single owed
        flag would fire 11."""
        workload = make_workload(
            [
                dedicated_job(1, submit=0.0, num=64, estimate=500.0, requested_start=100.0),
                batch_job(2, submit=100.0, num=32, estimate=50.0, actual=0.0),
                batch_job(3, submit=100.0, num=320, estimate=200.0),
            ]
        )
        path = tmp_path / "trace.jsonl"
        runner = SimulationRunner(workload, make_scheduler(algorithm), trace_out=path)
        metrics = runner.run()
        # t=0: arrival, cycle.  t=100: two arrivals, the timer, job 2's
        # finish, two cycles.  t=600 and t=800: a finish and a cycle.
        assert metrics.events_processed == 12
        assert metrics.telemetry.counters["schedule_cycles"] == 6
        assert runner.sim.pending_count() == 0
        body = path.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == self.TWO_OWED_BODIES[algorithm]
        finishes = {r.job_id: r.finish for r in metrics.records}
        assert finishes == {1: 600.0, 2: 100.0, 3: 800.0}


class TestUtilizationWindow:
    def test_window_spans_first_submit_to_last_finish(self):
        workload = make_workload(
            [batch_job(1, submit=50.0, num=160, estimate=100.0)]
        )
        metrics = simulate(workload, make_scheduler("EASY"))
        # Busy 160/320 over [50, 150] -> utilization 0.5 over makespan.
        assert metrics.makespan == 100.0
        assert metrics.utilization == pytest.approx(0.5)
