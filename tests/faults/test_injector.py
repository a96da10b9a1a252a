"""Fault injection and recovery: determinism, invariants, retry paths.

The fuzz test is the load-bearing one: ~100 random fault schedules per
scheduler, each run under :class:`AuditingScheduler` so queue/machine
invariants (including :meth:`Machine.check_invariants` in degraded
states) are re-checked on every cycle pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.audit import AuditingScheduler
from repro.core.registry import make_scheduler
from repro.experiments.runner import SimulationRunner, simulate
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultConfig, RetryPolicy
from repro.workload.ecc import ECC, ECCKind
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, Workload
from repro.workload.job import Job
from repro.workload.twostage import TwoStageSizeConfig
from repro.obs.analytics import replay
from tests.conftest import batch_job, make_workload, of_kind, run_traced

FAULTS = FaultConfig(mtbf=30000.0, mttr=2000.0, seed=5, p_job_fail=0.05)


def generated_workload(
    n_jobs: int = 40, seed: int = 7, p_extend: float = 0.0, p_reduce: float = 0.0
) -> Workload:
    config = GeneratorConfig(
        n_jobs=n_jobs,
        size=TwoStageSizeConfig(p_small=0.5),
        p_extend=p_extend,
        p_reduce=p_reduce,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


class TestDeterminism:
    def test_two_runs_are_byte_identical(self) -> None:
        workload = generated_workload()
        rows = [
            simulate(workload, make_scheduler("EASY"), faults=FAULTS).as_row()
            for _ in range(2)
        ]
        assert rows[0] == rows[1]

    def test_different_fault_seed_changes_schedule(self) -> None:
        workload = generated_workload()
        a = simulate(
            workload, make_scheduler("EASY"),
            faults=FaultConfig(mtbf=20000.0, mttr=2000.0, seed=1, p_job_fail=0.1),
        )
        b = simulate(
            workload, make_scheduler("EASY"),
            faults=FaultConfig(mtbf=20000.0, mttr=2000.0, seed=2, p_job_fail=0.1),
        )
        assert a.as_row() != b.as_row()

    def test_disabled_config_matches_fault_free_run(self) -> None:
        workload = generated_workload()
        baseline = simulate(workload, make_scheduler("EASY"))
        runner = SimulationRunner(
            workload, make_scheduler("EASY"), faults=FaultConfig()
        )
        assert runner.faults is None
        assert runner.run().as_row() == baseline.as_row()


class TestRecovery:
    def test_poison_job_exhausts_retries(self) -> None:
        workload = make_workload(
            [batch_job(1, estimate=500.0), batch_job(2, submit=1.0, estimate=500.0)]
        )
        metrics = simulate(
            workload,
            make_scheduler("EASY"),
            faults=FaultConfig(poison_jobs=(1,), seed=0),
            retry=RetryPolicy(max_retries=2),
        )
        assert metrics.failed_jobs == 1
        record = metrics.failed_records[0]
        assert record.job_id == 1
        assert record.attempts == 3  # initial attempt + 2 retries
        assert record.reason == "crash"
        assert record.lost_work > 0
        assert metrics.requeue_count == 2
        assert metrics.lost_work == record.lost_work
        # the healthy job still completes normally
        assert [r.job_id for r in metrics.records] == [2]

    def test_zero_retries_fails_on_first_crash(self) -> None:
        workload = make_workload([batch_job(1, estimate=500.0)])
        metrics = simulate(
            workload,
            make_scheduler("EASY"),
            faults=FaultConfig(poison_jobs=(1,)),
            retry=RetryPolicy(max_retries=0),
        )
        assert metrics.failed_jobs == 1
        assert metrics.failed_records[0].attempts == 1
        assert metrics.requeue_count == 0

    def test_transient_crash_recovers(self) -> None:
        # pfail applies per attempt; with enough retries the job
        # eventually completes and the partial attempts are lost work.
        workload = make_workload([batch_job(1, estimate=400.0)])
        metrics = simulate(
            workload,
            make_scheduler("EASY"),
            faults=FaultConfig(p_job_fail=0.9, seed=3),
            retry=RetryPolicy(max_retries=50),
        )
        assert metrics.failed_jobs == 0
        assert len(metrics.records) == 1
        if metrics.requeue_count:
            assert metrics.lost_work > 0

    def test_backoff_delays_requeue(self) -> None:
        workload = make_workload([batch_job(1, estimate=500.0)])
        _, records = run_traced(
            workload,
            make_scheduler("EASY"),
            faults=FaultConfig(poison_jobs=(1,)),
            retry=RetryPolicy(max_retries=2, backoff=100.0, backoff_factor=2.0),
        )
        fails = of_kind(records, "job-fail")
        requeues = of_kind(records, "requeue")
        assert len(fails) == 3 and len(requeues) == 2
        assert requeues[0].time == pytest.approx(fails[0].time + 100.0)
        assert requeues[1].time == pytest.approx(fails[1].time + 200.0)

    def test_checkpoint_reduces_lost_work(self) -> None:
        workload = make_workload([batch_job(1, estimate=2000.0)])
        faults = FaultConfig(poison_jobs=(1,), seed=0)
        plain = simulate(
            workload, make_scheduler("EASY-E"), faults=faults,
            retry=RetryPolicy(max_retries=3, checkpoint=False),
        )
        ckpt = simulate(
            workload, make_scheduler("EASY-E"), faults=faults,
            retry=RetryPolicy(max_retries=3, checkpoint=True),
        )
        assert plain.failed_jobs == ckpt.failed_jobs == 1
        assert ckpt.lost_work < plain.lost_work

    def test_checkpoint_is_inert_for_non_elastic_policies(self) -> None:
        workload = make_workload([batch_job(1, estimate=2000.0)])
        faults = FaultConfig(poison_jobs=(1,), seed=0)
        rows = [
            simulate(
                workload, make_scheduler("EASY"), faults=faults,
                retry=RetryPolicy(max_retries=2, checkpoint=flag),
            ).as_row()
            for flag in (False, True)
        ]
        assert rows[0] == rows[1]


class TestDecisions:
    def test_the_injector_answers_from_its_config_alone(self) -> None:
        config = FaultConfig(mtbf=1000.0, mttr=50.0, seed=4, p_job_fail=0.5)
        a, b = FaultInjector(config), FaultInjector(config)
        assert a.next_failure_gap() == b.next_failure_gap() > 0
        assert a.pick_failure([3, 5, 8]) == b.pick_failure([3, 5, 8])
        assert a.node_failures == 1
        job = batch_job(1, estimate=400.0)
        delays = {a.crash_delay(job) for _ in range(3)}
        assert len(delays) == 1  # a function of (seed, job, attempt)

    def test_poison_jobs_always_crash_inside_the_attempt(self) -> None:
        injector = FaultInjector(FaultConfig(poison_jobs=(1,)))
        job = batch_job(1, estimate=400.0)
        for requeues in range(4):
            job.requeues = requeues
            delay = injector.crash_delay(job)
            assert delay is not None and 0.05 * 400.0 <= delay <= 0.95 * 400.0
        assert injector.crash_delay(batch_job(2, estimate=400.0)) is None


class TestBackoffWindow:
    """Commands that land while a failed job waits out its backoff."""

    RETRY = RetryPolicy(backoff=10000.0)
    FAULTS = FaultConfig(seed=2, p_job_fail=0.5)

    def test_cancellation_withdraws_a_job_in_backoff(self) -> None:
        # Attempt 1 crashes at t~261; the cancel at t=5000 finds the
        # job waiting for its requeue at t~10261.
        workload = make_workload([Job(1, 0, 32, 1000, 1000, cancel_at=5000)])
        metrics, records = run_traced(
            workload, make_scheduler("EASY"), faults=self.FAULTS, retry=self.RETRY
        )
        assert metrics.n_jobs == 0 and metrics.requeue_count == 0
        assert [(r.job_id, r.cancelled_at) for r in metrics.cancelled_records] == [
            (1, 5000.0)
        ]
        assert [r.kind for r in records] == ["arrive", "start", "job-fail", "cancel"]
        assert records[-1].data == {"job": 1, "num": 32, "was": "pending"}
        # The job was in no queue while it waited: its cancellation
        # lowers no queue depth in the replayed timeline.
        replayed = replay(records, meta={"machine_size": 320})
        assert [depth for _, depth in replayed.queue_depth] == [0]

    def test_ecc_on_a_job_in_backoff_leaves_the_backlog_exact(self) -> None:
        workload = make_workload(
            [Job(1, 0, 32, 1000, 1000)],
            eccs=[ECC(job_id=1, issue_time=5000.0, kind=ECCKind.EXTEND_TIME, amount=100000.0)],
        )
        metrics = simulate(
            workload, make_scheduler("EASY-E"), faults=self.FAULTS, retry=self.RETRY
        )
        assert metrics.ecc_stats == {"applied-queued": 1}
        # Every requeue starts at once, so no work ever waits; the
        # peak is the extended job's enqueue alone: 32 x 101000.
        assert metrics.queue.mean_backlog == 0.0
        assert metrics.queue.max_backlog == 32 * 101000.0


class TestNodeFaults:
    def test_eviction_requeues_and_counts_degraded_time(self) -> None:
        # One big job on a small machine: frequent failures guarantee
        # at least one eviction within the job's lifetime.
        workload = make_workload(
            [batch_job(1, num=128, estimate=5000.0)],
            machine_size=128,
            granularity=32,
        )
        metrics = simulate(
            workload,
            make_scheduler("EASY"),
            faults=FaultConfig(mtbf=1000.0, mttr=200.0, seed=0),
            retry=RetryPolicy(max_retries=1000),
        )
        assert metrics.node_failures > 0
        assert metrics.requeue_count > 0
        assert metrics.degraded_time > 0
        assert metrics.lost_work > 0
        assert len(metrics.records) == 1  # eventually completes

    def test_degraded_time_stays_inside_the_run_window(self) -> None:
        # Outages here outlast the last finish: only the part inside
        # [first submission, last finish] counts, as the trace shows.
        workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=200)).generate(
            np.random.default_rng(7)
        )
        metrics, records = run_traced(
            workload,
            make_scheduler("EASY"),
            faults=FaultConfig(mtbf=20000.0, mttr=50000.0, seed=2),
        )
        start = min(job.submit for job in workload.jobs)
        end = start + metrics.makespan
        offline, since, inside = 0, 0.0, 0.0
        for record in of_kind(records, "node-fail", "node-repair"):
            if record.kind == "node-fail":
                offline += 1
                if offline == 1:
                    since = record.time
            else:
                offline -= 1
                if offline == 0:
                    inside += max(0.0, min(record.time, end) - since)
        if offline:
            inside += max(0.0, end - since)
        assert metrics.degraded_time <= metrics.makespan
        assert metrics.degraded_time == pytest.approx(inside, rel=1e-12)
        assert metrics.degraded_time == pytest.approx(874_667.2, abs=0.1)

    def test_heap_drains_after_last_job(self) -> None:
        # The failure chain must stop once no work remains, so short
        # workloads under aggressive MTBF still terminate.
        workload = make_workload([batch_job(1, estimate=50.0)])
        metrics = simulate(
            workload,
            make_scheduler("EASY"),
            faults=FaultConfig(mtbf=10.0, mttr=5.0, seed=1),
            retry=RetryPolicy(max_retries=10000),
        )
        assert len(metrics.records) == 1


@pytest.mark.parametrize(
    "name,elastic",
    [("EASY", False), ("LOS", False), ("Hybrid-LOS-E", True)],
)
def test_fuzz_invariants_under_random_fault_schedules(name: str, elastic: bool) -> None:
    """~100 random fault schedules per scheduler, fully audited.

    Every cycle pass re-checks the structural invariants and
    ``Machine.check_invariants()`` — which must hold throughout
    degraded operation — and every run must account for every job.
    """
    workload = generated_workload(
        n_jobs=12,
        seed=11,
        p_extend=0.2 if elastic else 0.0,
        p_reduce=0.2 if elastic else 0.0,
    )
    rng = np.random.default_rng(99)
    for trial in range(100):
        mtbf = float(np.exp(rng.uniform(np.log(2e3), np.log(1e5))))
        mttr = float(np.exp(rng.uniform(np.log(1e2), np.log(5e3))))
        poison = (int(rng.integers(1, 13)),) if rng.random() < 0.3 else ()
        faults = FaultConfig(
            mtbf=mtbf,
            mttr=mttr,
            seed=trial,
            p_job_fail=float(rng.uniform(0.0, 0.3)),
            poison_jobs=poison,
        )
        retry = RetryPolicy(
            max_retries=int(rng.integers(0, 6)),
            backoff=float(rng.uniform(0.0, 300.0)),
            checkpoint=bool(rng.random() < 0.5),
        )
        runner = SimulationRunner(
            workload,
            AuditingScheduler(make_scheduler(name)),
            faults=faults,
            retry=retry,
        )
        metrics = runner.run()
        runner.machine.check_invariants()
        assert runner.machine.used == 0, (trial, faults)
        # conservation: every job either finished or failed permanently
        finished = {record.job_id for record in metrics.records}
        failed = {record.job_id for record in metrics.failed_records}
        assert not finished & failed, (trial, faults)
        assert finished | failed == {job.job_id for job in workload.jobs}, (
            trial,
            faults,
        )
        assert runner._jobs_admitted == runner._jobs_retired == len(workload)
        assert len(metrics.records) + metrics.failed_jobs == len(workload), (
            trial,
            faults,
        )
        assert metrics.lost_work >= 0
        assert metrics.degraded_time >= 0
