"""Integration tests for the simulation runner."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.registry import make_scheduler
from repro.experiments.runner import SimulationRunner, simulate
from repro.faults.model import FaultConfig
from repro.sim.engine import SimulationError
from repro.workload.ecc import ECC, ECCKind
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from tests.conftest import batch_job, dedicated_job, make_workload, of_kind, run_traced


class TestBasicRuns:
    def test_single_job(self):
        workload = make_workload([batch_job(1, submit=0.0, num=64, estimate=100.0)])
        metrics = simulate(workload, make_scheduler("EASY"))
        assert metrics.n_jobs == 1
        record = metrics.records[0]
        assert record.start == 0.0 and record.finish == 100.0
        assert metrics.mean_wait == 0.0
        assert metrics.makespan == 100.0
        # 64 procs for 100s on 320 procs over 100s.
        assert metrics.utilization == pytest.approx(64 / 320)

    def test_sequential_contention(self):
        # Two full-machine jobs: the second waits for the first.
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0),
                batch_job(2, submit=0.0, num=320, estimate=100.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("EASY"))
        waits = {r.job_id: r.wait for r in metrics.records}
        assert waits == {1: 0.0, 2: 100.0}
        assert metrics.utilization == pytest.approx(1.0)

    def test_workload_not_mutated_across_runs(self, small_batch_workload):
        before = [(j.job_id, j.state, j.start_time) for j in small_batch_workload.jobs]
        simulate(small_batch_workload, make_scheduler("EASY"))
        after = [(j.job_id, j.state, j.start_time) for j in small_batch_workload.jobs]
        assert before == after

    def test_all_jobs_finish(self, small_batch_workload):
        for name in ("FCFS", "EASY", "LOS", "Delayed-LOS", "CONSERVATIVE"):
            metrics = simulate(small_batch_workload, make_scheduler(name))
            assert metrics.n_jobs == len(small_batch_workload)

    def test_determinism(self, small_batch_workload):
        a = simulate(small_batch_workload, make_scheduler("Delayed-LOS"))
        b = simulate(small_batch_workload, make_scheduler("Delayed-LOS"))
        assert [(r.job_id, r.start, r.finish) for r in a.records] == [
            (r.job_id, r.start, r.finish) for r in b.records
        ]


class TestKillBySemantics:
    def test_overrunning_job_killed_at_estimate(self):
        job = batch_job(1, submit=0.0, num=32, estimate=100.0, actual=500.0)
        metrics = simulate(make_workload([job]), make_scheduler("EASY"))
        record = metrics.records[0]
        assert record.finish == 100.0
        assert record.killed

    def test_early_termination_frees_capacity(self):
        # Job 1 claims 100s but actually ends at 10s; job 2 (320 procs)
        # must start at t=10, not t=100.
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=100.0, actual=10.0),
                batch_job(2, submit=0.0, num=320, estimate=50.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("EASY"))
        starts = {r.job_id: r.start for r in metrics.records}
        assert starts[2] == 10.0


class TestDedicatedHandling:
    def test_batch_scheduler_rejects_dedicated(self):
        workload = make_workload([dedicated_job(1, requested_start=100.0)])
        with pytest.raises(ValueError, match="-D variant"):
            SimulationRunner(workload, make_scheduler("EASY"))

    def test_dedicated_starts_at_requested_time(self):
        workload = make_workload(
            [dedicated_job(1, submit=0.0, num=64, estimate=100.0, requested_start=500.0)]
        )
        for name in ("Hybrid-LOS", "EASY-D", "LOS-D"):
            metrics = simulate(workload, make_scheduler(name))
            record = metrics.records[0]
            assert record.start == 500.0, name
            assert record.dedicated_delay == 0.0

    def test_batch_packs_before_dedicated_start(self):
        workload = make_workload(
            [
                dedicated_job(1, submit=0.0, num=320, estimate=100.0, requested_start=1000.0),
                batch_job(2, submit=0.0, num=320, estimate=900.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("Hybrid-LOS"))
        starts = {r.job_id: r.start for r in metrics.records}
        # The batch job ends at 900 < 1000: it may run first.
        assert starts[2] == 0.0
        assert starts[1] == 1000.0

    def test_batch_overrunning_dedicated_start_is_held(self):
        workload = make_workload(
            [
                dedicated_job(1, submit=0.0, num=320, estimate=100.0, requested_start=500.0),
                batch_job(2, submit=0.0, num=320, estimate=900.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("Hybrid-LOS"))
        starts = {r.job_id: r.start for r in metrics.records}
        assert starts[1] == 500.0  # dedicated honoured on time
        assert starts[2] == 600.0  # batch waits for it to finish

    def test_batch_held_to_protect_future_dedicated_start(self):
        """A batch job that would overrun the dedicated reservation is
        held even though the machine is idle."""
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=300.0),
                dedicated_job(2, submit=0.0, num=320, estimate=50.0, requested_start=100.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("Hybrid-LOS"))
        starts = {r.job_id: r.start for r in metrics.records}
        assert starts[2] == 100.0  # dedicated exactly on time
        assert starts[1] == 150.0  # batch job deferred behind it

    def test_dedicated_delayed_when_capacity_insufficient(self):
        """The batch job is already running when the dedicated job
        arrives: its delay is unavoidable (§III-B)."""
        workload = make_workload(
            [
                batch_job(1, submit=0.0, num=320, estimate=300.0),
                dedicated_job(2, submit=50.0, num=320, estimate=50.0, requested_start=100.0),
            ]
        )
        metrics = simulate(workload, make_scheduler("Hybrid-LOS"))
        record = next(r for r in metrics.records if r.job_id == 2)
        assert record.start == 300.0  # unavoidable delay
        assert record.dedicated_delay == 200.0


class TestElasticHandling:
    def _workload_with_ecc(self, kind, amount, issue):
        job = batch_job(1, submit=0.0, num=320, estimate=100.0)
        follower = batch_job(2, submit=0.0, num=320, estimate=50.0)
        ecc = ECC(job_id=1, issue_time=issue, kind=kind, amount=amount)
        return make_workload([job, follower], eccs=[ecc])

    def test_et_extends_running_job(self):
        workload = self._workload_with_ecc(ECCKind.EXTEND_TIME, 50.0, issue=20.0)
        metrics = simulate(workload, make_scheduler("EASY-E"))
        finishes = {r.job_id: r.finish for r in metrics.records}
        assert finishes[1] == 150.0
        starts = {r.job_id: r.start for r in metrics.records}
        assert starts[2] == 150.0  # follower displaced by the extension

    def test_rt_shrinks_running_job(self):
        workload = self._workload_with_ecc(ECCKind.REDUCE_TIME, 50.0, issue=20.0)
        metrics = simulate(workload, make_scheduler("EASY-E"))
        finishes = {r.job_id: r.finish for r in metrics.records}
        assert finishes[1] == 50.0
        starts = {r.job_id: r.start for r in metrics.records}
        assert starts[2] == 50.0  # follower benefits immediately

    def test_rt_below_elapsed_terminates_now(self):
        workload = self._workload_with_ecc(ECCKind.REDUCE_TIME, 99.0, issue=60.0)
        metrics = simulate(workload, make_scheduler("EASY-E"))
        finishes = {r.job_id: r.finish for r in metrics.records}
        assert finishes[1] == 60.0

    def test_non_elastic_scheduler_drops_eccs(self):
        workload = self._workload_with_ecc(ECCKind.EXTEND_TIME, 50.0, issue=20.0)
        metrics = simulate(workload, make_scheduler("EASY"))
        finishes = {r.job_id: r.finish for r in metrics.records}
        assert finishes[1] == 100.0  # unchanged
        assert metrics.ecc_stats == {"dropped-not-elastic": 1}

    def test_ecc_on_queued_job(self):
        # Extend the queued follower before it starts.
        job = batch_job(1, submit=0.0, num=320, estimate=100.0)
        follower = batch_job(2, submit=0.0, num=320, estimate=50.0)
        ecc = ECC(job_id=2, issue_time=30.0, kind=ECCKind.EXTEND_TIME, amount=25.0)
        workload = make_workload([job, follower], eccs=[ecc])
        metrics = simulate(workload, make_scheduler("EASY-E"))
        record = next(r for r in metrics.records if r.job_id == 2)
        assert record.runtime == 75.0

    def test_max_eccs_per_job_cap(self):
        job = batch_job(1, submit=0.0, num=320, estimate=100.0)
        eccs = [
            ECC(job_id=1, issue_time=10.0, kind=ECCKind.EXTEND_TIME, amount=20.0),
            ECC(job_id=1, issue_time=20.0, kind=ECCKind.EXTEND_TIME, amount=20.0),
        ]
        workload = make_workload([job], eccs=eccs)
        metrics = simulate(workload, make_scheduler("EASY-E"), max_eccs_per_job=1)
        assert metrics.records[0].finish == 120.0  # only one applied
        assert metrics.ecc_stats.get("rejected-cap") == 1


class TestTraceInvariants:
    def test_trace_records_full_lifecycle(self, small_batch_workload):
        _, records = run_traced(small_batch_workload, make_scheduler("Delayed-LOS"))
        times = [r.time for r in records]
        assert times == sorted(times)
        n = len(small_batch_workload)
        assert len(of_kind(records, "arrive")) == n
        assert len(of_kind(records, "start")) == n
        assert len(of_kind(records, "finish")) == n

    def test_no_start_before_arrival(self, small_batch_workload):
        _, records = run_traced(small_batch_workload, make_scheduler("LOS"))
        arrivals = {r.data["job"]: r.time for r in of_kind(records, "arrive")}
        for start in of_kind(records, "start"):
            assert start.time >= arrivals[start.data["job"]]

    def test_split_run_writes_the_uninterrupted_trace(self, tmp_path):
        """``run(until=T); run()`` continues the trace file, not restarts it."""
        workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=60)).generate(
            np.random.default_rng(3)
        )
        whole, split = tmp_path / "whole.jsonl", tmp_path / "split.jsonl"
        metrics = simulate(workload, make_scheduler("EASY"), trace_out=whole)
        runner = SimulationRunner(workload, make_scheduler("EASY"), trace_out=split)
        runner.run(until=workload.jobs[0].submit + metrics.makespan / 2)
        assert runner.run() == metrics
        assert split.read_bytes() == whole.read_bytes()

    def test_capacity_never_exceeded(self, small_batch_workload):
        _, records = run_traced(small_batch_workload, make_scheduler("Delayed-LOS"))
        level = 0
        for record in of_kind(records, "start", "finish"):
            level += record.data["num"] if record.kind == "start" else -record.data["num"]
            assert 0 <= level <= small_batch_workload.machine_size


class TestErrorPaths:
    def test_duplicate_ids_rejected(self):
        workload = make_workload([batch_job(1), ])
        workload.jobs.append(batch_job(1, submit=10.0))
        with pytest.raises(ValueError, match="duplicate"):
            SimulationRunner(workload, make_scheduler("EASY"))

    def test_oversized_job_rejected_at_init(self):
        workload = make_workload([batch_job(1, num=640)], machine_size=320)
        with pytest.raises(Exception, match="exceeds machine size"):
            SimulationRunner(workload, make_scheduler("EASY"))

    def test_run_until_leaves_pending_without_error(self, small_batch_workload):
        runner = SimulationRunner(small_batch_workload, make_scheduler("EASY"))
        metrics = runner.run(until=1.0)
        assert metrics.n_jobs <= len(small_batch_workload)


class TestECCValidation:
    def test_ecc_before_submission_rejected(self):
        job = batch_job(1, submit=100.0, num=320, estimate=50.0)
        ecc = ECC(job_id=1, issue_time=10.0, kind=ECCKind.EXTEND_TIME, amount=5.0)
        workload = make_workload([job], eccs=[ecc])
        with pytest.raises(ValueError, match="before the job's submission"):
            SimulationRunner(workload, make_scheduler("EASY-E"))

    def test_ecc_for_unknown_job_rejected(self):
        job = batch_job(1, submit=0.0, num=320, estimate=50.0)
        ecc = ECC(job_id=99, issue_time=10.0, kind=ECCKind.EXTEND_TIME, amount=5.0)
        workload = make_workload([job], eccs=[ecc])
        with pytest.raises(ValueError, match="unknown job 99"):
            SimulationRunner(workload, make_scheduler("EASY-E"))


class TestRunnerLifetime:
    """A finished run is freed by reference counting alone: the runner
    forms no reference cycle, so a sweep never keeps a finished run's
    state until the next full collection."""

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"faults": FaultConfig(seed=1, p_job_fail=0.3)},
            {"faults": FaultConfig(mtbf=20000.0, mttr=2000.0, seed=1)},
            {"decisions": True},
        ],
        ids=["plain", "job-faults", "node-faults", "decisions"],
    )
    def test_finished_runner_dies_without_the_collector(self, options):
        workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=40)).generate(
            np.random.default_rng(3)
        )
        gc.collect()
        gc.disable()
        try:
            runner = SimulationRunner(workload, make_scheduler("EASY"), **options)
            runner.run()
            alive = weakref.ref(runner)
            del runner
            assert alive() is None
        finally:
            gc.enable()
