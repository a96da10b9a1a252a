"""How a workload is fed never changes a run, metric for metric.

Every run streams its feed: a :class:`Workload` and a
:class:`~repro.workload.streaming.JobStream` of the same items are
admitted alike, a whole instant at a time, and every item owns its
same-instant priority slot.  So a streamed run must produce a
:class:`RunMetrics` equal to the materialized workload's — records,
ECC stats, queue summary, offered load, everything dataclass equality
covers — and the same trace records, at any ``STREAM_WINDOW``, with
or without faults.  ``retain_records=False`` drops the per-job list
but must leave every O(1) aggregate (the completion means, online
summary, utilization, makespan, offered load) untouched.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np
import pytest

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments import runner as runner_module
from repro.experiments.runner import SimulationRunner, simulate
from repro.faults.model import FaultConfig, RetryPolicy
from repro.metrics.records import RunMetrics
from repro.workload.ecc import ECC, ECCKind
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, Workload
from repro.workload.job import Job
from repro.workload.streaming import JobStream, SyntheticWorkloadStream
from repro.workload.transform import make_malleable
from tests.conftest import batch_job, make_workload, of_kind, run_traced
from tests.metrics.records_reference import differences

BASE = GeneratorConfig(
    n_jobs=150, p_extend=0.25, p_reduce=0.15, p_cancel=0.05
)
HETERO = GeneratorConfig(
    n_jobs=150, p_dedicated=0.2, p_extend=0.25, p_reduce=0.15, p_cancel=0.05
)
SEED = 42


def _config_for(algorithm: str) -> GeneratorConfig:
    return HETERO if make_scheduler(algorithm).handles_dedicated else BASE


@pytest.mark.parametrize(
    "algorithm", ["EASY", "LOS", "Delayed-LOS", "LOS-E", "Hybrid-LOS-E"]
)
def test_streaming_equals_eager(algorithm):
    config = _config_for(algorithm)
    eager_workload = CWFWorkloadGenerator(config).generate(
        np.random.default_rng(SEED)
    )
    eager = simulate(eager_workload, make_scheduler(algorithm))

    stream = SyntheticWorkloadStream(config, seed=SEED).stream()
    streamed = simulate(stream, make_scheduler(algorithm), online=True)

    assert streamed == eager  # records, ecc_stats, queue, offered_load, ...
    assert differences(streamed) == []


def test_retain_records_false_keeps_aggregates():
    config = _config_for("EASY")
    eager = simulate(
        CWFWorkloadGenerator(config).generate(np.random.default_rng(SEED)),
        make_scheduler("EASY"),
    )
    with_records = simulate(
        SyntheticWorkloadStream(config, seed=SEED).stream(),
        make_scheduler("EASY"),
        online=True,
    )
    dropped = simulate(
        SyntheticWorkloadStream(config, seed=SEED).stream(),
        make_scheduler("EASY"),
        online=True,
        retain_records=False,
    )
    assert dropped.records == []
    assert dropped.as_row() == with_records.as_row()
    assert dropped.online == with_records.online
    assert dropped.utilization == eager.utilization
    assert dropped.makespan == eager.makespan
    assert dropped.offered_load == eager.offered_load


def test_retain_records_false_requires_online():
    """``retain_records=False`` alone keeps every mean, without ``online``."""
    stream = SyntheticWorkloadStream(BASE, seed=SEED).stream()
    dropped = simulate(stream, make_scheduler("EASY"), retain_records=False)
    kept = simulate(
        SyntheticWorkloadStream(BASE, seed=SEED).stream(), make_scheduler("EASY")
    )
    assert dropped.records == [] and dropped.online is None
    assert dropped.n_jobs == len(kept.records) > 0
    assert dropped.as_row() == kept.as_row()
    assert dropped.mean_bounded_slowdown == kept.mean_bounded_slowdown


def test_streaming_run_with_faults_completes_and_cross_validates():
    """Fault injection against a synthetic stream equals the workload run.

    The run completes, accounts every job, matches the materialized
    workload's metrics, and its stored means still equal the per-record
    walk.
    """
    faults = FaultConfig(mtbf=40000.0, mttr=2000.0, seed=5)
    stream = SyntheticWorkloadStream(BASE, seed=SEED).stream()
    metrics = simulate(
        stream, make_scheduler("EASY"), faults=faults, online=True
    )
    accounted = (
        metrics.n_jobs + metrics.n_cancelled + metrics.failed_jobs
    )
    assert accounted == BASE.n_jobs
    assert differences(metrics) == []
    workload = CWFWorkloadGenerator(BASE).generate(np.random.default_rng(SEED))
    assert metrics == simulate(workload, make_scheduler("EASY"), faults=faults)


# ----------------------------------------------------------------------
# Differential: Workload feed vs JobStream feed, every registry policy
# ----------------------------------------------------------------------
REGISTRY = sorted(ALGORITHMS)
WINDOWS = (1, 2, 64)
FAULTS = FaultConfig(mtbf=40000.0, mttr=2000.0, seed=5)


@lru_cache(maxsize=None)
def _differential_workload(dedicated: bool) -> Workload:
    """Elastic, cancelling, partly malleable input (dedicated on demand)."""
    config = replace(HETERO if dedicated else BASE, n_jobs=100)
    workload = CWFWorkloadGenerator(config).generate(np.random.default_rng(SEED))
    return make_malleable(workload, 0.5, seed=SEED)


def _stream_of(workload: Workload) -> JobStream:
    """The workload's items as a single-use stream, merged here (not by
    ``Workload.__iter__``): time order, submissions before commands."""
    jobs = ((j.submit, 0, i, j.copy_for_run()) for i, j in enumerate(workload.jobs))
    eccs = ((e.issue_time, 1, i, e) for i, e in enumerate(workload.eccs))
    return JobStream(
        (item for *_, item in heapq.merge(jobs, eccs)),
        machine_size=workload.machine_size,
        granularity=workload.granularity,
    )


def _run(
    feed: Union[Workload, JobStream],
    algorithm: str,
    trace_path: Path,
    *,
    window: int = 64,
    faults: Optional[FaultConfig] = None,
    retry: Optional[RetryPolicy] = None,
) -> Tuple[RunMetrics, List[str]]:
    """Metrics plus the trace body (the header names the feed kind)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner_module, "STREAM_WINDOW", window)
        metrics = SimulationRunner(
            feed,
            make_scheduler(algorithm),
            faults=faults,
            retry=retry,
            trace_out=trace_path,
        ).run()
    return metrics, trace_path.read_text().splitlines()[1:]


def _assert_feeds_agree(
    workload: Workload, algorithm: str, tmp_path: Path, **kwargs
) -> List[str]:
    """Every window, both feed kinds: equal metrics, identical traces."""
    expected = _run(workload, algorithm, tmp_path / "workload.jsonl", **kwargs)
    for window in WINDOWS:
        for kind, feed in (("workload", workload), ("stream", _stream_of(workload))):
            got = _run(
                feed, algorithm, tmp_path / f"{kind}-{window}.jsonl",
                window=window, **kwargs,
            )
            assert got[0] == expected[0], (algorithm, kind, window)
            assert got[1] == expected[1], (algorithm, kind, window)
    return expected[1]


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["fault-free", "faults"])
@pytest.mark.parametrize("algorithm", REGISTRY)
def test_feed_kind_and_window_never_change_a_run(algorithm, faults, tmp_path):
    workload = _differential_workload(make_scheduler(algorithm).handles_dedicated)
    _assert_feeds_agree(workload, algorithm, tmp_path, faults=faults)


def _same_instant(body: List[str], when: float) -> List[str]:
    """Kinds of the trace records at instant ``when``, in order."""
    records = (json.loads(line) for line in body)
    return [r["kind"] for r in records if r["t"] == when]


@pytest.mark.parametrize("algorithm", REGISTRY)
def test_arrival_precedes_same_instant_requeue(algorithm, tmp_path):
    """A backoff that expires exactly at a submission requeues behind it.

    Job 1 is poisoned: its first attempt crashes at a seeded instant
    and rejoins the queue 100 s later, when job 3 is submitted.  Job 2,
    submitted in between, makes a window-1 feed admit job 3 only after
    the requeue is already on the heap.
    """
    faults = FaultConfig(seed=3, poison_jobs=(1,))
    retry = RetryPolicy(max_retries=1, backoff=100.0)
    _, records = run_traced(
        make_workload([batch_job(1, estimate=1000.0)]),
        make_scheduler(algorithm), faults=faults, retry=retry,
    )
    crash = of_kind(records, "job-fail")[0].time
    requeue_at = crash + 100.0
    workload = make_workload([
        batch_job(1, estimate=1000.0),
        batch_job(2, submit=crash + 50.0),
        batch_job(3, submit=requeue_at),
    ])
    body = _assert_feeds_agree(workload, algorithm, tmp_path, faults=faults, retry=retry)
    kinds = _same_instant(body, requeue_at)
    assert kinds.index("arrive") < kinds.index("requeue"), kinds


@pytest.mark.parametrize("algorithm", REGISTRY)
def test_command_precedes_same_instant_cancellation(algorithm, tmp_path):
    """An ECC and a user cancellation of one queued job at one instant:
    the command applies first, then the job is withdrawn."""
    workload = make_workload(
        [
            batch_job(1, num=320, estimate=100.0),
            Job(job_id=2, submit=1.0, num=32, estimate=100.0, cancel_at=50.0),
        ],
        eccs=[ECC(job_id=2, issue_time=50.0, kind=ECCKind.EXTEND_TIME, amount=10.0)],
    )
    body = _assert_feeds_agree(workload, algorithm, tmp_path)
    kinds = _same_instant(body, 50.0)
    command = "ecc" if make_scheduler(algorithm).elastic else "ecc-dropped"
    assert kinds.index(command) < kinds.index("cancel"), kinds


def test_job_stream_is_single_use():
    stream = SyntheticWorkloadStream(BASE, seed=SEED).stream()
    simulate(stream, make_scheduler("EASY"), online=True)
    # A drained stream admits nothing; the runner rejects it rather
    # than silently simulating zero jobs.
    with pytest.raises(Exception):
        simulate(stream, make_scheduler("EASY"), online=True)
