"""Property fuzzing of runtime elasticity.

Generates random ECC command streams (arbitrary kinds, amounts, issue
times, including commands targeting already-finished jobs and repeated
commands on one job) against small workloads, and checks that the
elastic simulations always terminate with intact invariants — the
paper's -E machinery must be robust to any command sequence, not just
the generator's nicely-behaved ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.registry import make_scheduler
from repro.experiments.runner import SimulationRunner
from repro.workload.ecc import ECC, ECCKind
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, Workload
from repro.workload.twostage import TwoStageSizeConfig
from tests.conftest import of_kind, run_traced


def base_jobs(seed: int, n_jobs: int = 15):
    config = GeneratorConfig(n_jobs=n_jobs, size=TwoStageSizeConfig(p_small=0.5))
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


ecc_strategy = st.tuples(
    st.integers(1, 15),  # job id
    st.floats(0.0, 50_000.0, allow_nan=False),  # issue offset after submit
    st.sampled_from([ECCKind.EXTEND_TIME, ECCKind.REDUCE_TIME]),
    st.floats(1.0, 10_000.0, allow_nan=False),  # amount
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 500),
    raw_eccs=st.lists(ecc_strategy, max_size=30),
    algorithm=st.sampled_from(["EASY-E", "LOS-E", "Delayed-LOS-E"]),
    cap=st.one_of(st.none(), st.integers(0, 3)),
)
def test_arbitrary_ecc_streams_never_break_the_simulation(seed, raw_eccs, algorithm, cap):
    base = base_jobs(seed)
    submits = {job.job_id: job.submit for job in base.jobs}
    # Validity constraint (enforced by the runner): an ECC targets a
    # previously submitted job, so it is issued at submit + offset.
    eccs = [
        ECC(job_id=jid, issue_time=submits[jid] + offset, kind=kind, amount=amount)
        for jid, offset, kind, amount in raw_eccs
    ]
    workload = Workload(
        jobs=[j.copy_for_run() for j in base.jobs],
        eccs=eccs,
        machine_size=base.machine_size,
        granularity=base.granularity,
    )
    metrics, records = run_traced(
        workload, make_scheduler(algorithm), max_eccs_per_job=cap
    )

    # Every job completes exactly once; no capacity violation anywhere.
    assert metrics.n_jobs == len(workload)
    level = 0
    for event in of_kind(records, "start", "finish"):
        level += event.data["num"] if event.kind == "start" else -event.data["num"]
        assert 0 <= level <= workload.machine_size
    # Every command was accounted for by the processor.
    assert sum(metrics.ecc_stats.values()) == len(eccs)
    # The cap was honoured.
    if cap is not None:
        assert all(r.eccs_applied <= cap for r in metrics.records)
    # Runs never produce negative-length executions.
    assert all(r.finish >= r.start for r in metrics.records)


@settings(max_examples=15, deadline=None)
@given(
    amount=st.floats(1.0, 1e6, allow_nan=False),
    issue_fraction=st.floats(0.0, 0.99),
)
def test_rt_commands_never_produce_negative_residuals(amount, issue_fraction):
    """A reduction of any magnitude at any point of a running job's
    life clamps at 'terminate now', never earlier."""
    from tests.conftest import batch_job, make_workload

    job = batch_job(1, submit=0.0, num=320, estimate=1000.0)
    issue = 1.0 + issue_fraction * 998.0
    ecc = ECC(job_id=1, issue_time=issue, kind=ECCKind.REDUCE_TIME, amount=amount)
    workload = make_workload([job], eccs=[ecc])
    metrics = SimulationRunner(workload, make_scheduler("EASY-E")).run()
    record = metrics.records[0]
    assert record.start == 0.0
    assert issue <= record.finish <= 1000.0 or record.finish == pytest.approx(issue)
