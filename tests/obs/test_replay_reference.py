"""The streaming replay against the record-at-a-time loop it replaced.

Every registry policy runs twice on ~80 jobs: once with ET/RT commands,
cancellations at and after submission and decision records, and once
more under pset and job faults with a retry backoff and checkpoint
credit.  Dedicated-capable policies get ``P_D = 0.3`` dedicated jobs,
the rest malleable ranges on half the jobs.  Each trace is replayed
from the materialized records and as a stream off the reader, and both
must equal :func:`tests.obs.replay_reference.reference_replay` field
for field.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.calibrate import calibrate_beta_arr
from repro.experiments.runner import simulate
from repro.faults.model import FaultConfig, RetryPolicy
from repro.obs.analytics import replay
from repro.obs.trace_io import read_trace
from repro.sim.trace import TraceRecord
from repro.workload.generator import GeneratorConfig, Workload
from repro.workload.transform import make_malleable
from repro.workload.twostage import TwoStageSizeConfig
from tests.obs.replay_reference import compare_file, reference_replay, replay_differences

SEED = 5


def _workload(p_dedicated: float) -> Workload:
    config = GeneratorConfig(
        n_jobs=80,
        size=TwoStageSizeConfig(p_small=0.5),
        p_dedicated=p_dedicated,
        p_extend=0.3,
        p_reduce=0.1,
    )
    workload = calibrate_beta_arr(config, 0.9, seed=SEED).workload
    if not p_dedicated:
        workload = make_malleable(workload, 0.5, seed=SEED)
    # Two cancellations at submission, two 10 minutes after it, and one
    # halfway through the first job, which starts on an empty machine.
    jobs = list(workload.jobs)
    for index in (3, 17):
        jobs[index] = replace(jobs[index], cancel_at=jobs[index].submit)
    for index in (8, 40):
        jobs[index] = replace(jobs[index], cancel_at=jobs[index].submit + 600.0)
    first = jobs[0]
    jobs[0] = replace(first, cancel_at=first.submit + (first.actual or first.estimate) / 2)
    return replace(workload, jobs=jobs)


@pytest.fixture(scope="module")
def workloads():
    return {"dedicated": _workload(0.3), "batch": _workload(0.0)}


SCENARIOS = {
    "commands": {"decisions": True},
    "faults": {
        "decisions": True,
        "faults": FaultConfig(mtbf=5000.0, mttr=2000.0, seed=3, p_job_fail=0.15),
        "retry": RetryPolicy(max_retries=2, backoff=500.0, checkpoint=True),
    },
}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_replay_matches_reference(workloads, tmp_path, algorithm):
    scheduler = make_scheduler(algorithm)
    workload = workloads["dedicated" if scheduler.handles_dedicated else "batch"]
    seen = set()
    for name, options in SCENARIOS.items():
        path = tmp_path / f"{name}.jsonl"
        simulate(workload, make_scheduler(algorithm), trace_out=path, **options)
        assert compare_file(str(path)) == [], f"{algorithm} / {name}"
        for record in read_trace(path).records:
            seen.add(record.kind)
            if record.kind == "cancel":
                seen.add("cancel-" + record.data["was"])
    # Each policy's corpus reaches every record kind replay reads (its
    # commands are "ecc-dropped" under a non-elastic policy), and
    # cancellations of both queued and running jobs.
    assert {
        "arrive", "start", "finish", "cancel-queued", "cancel-running",
        "decision", "job-fail", "requeue", "node-fail",
    } <= seen
    assert seen & {"ecc", "ecc-dropped"}


def test_record_comparison_is_type_strict():
    """A NamedTuple ``JobRecord`` equals a plain tuple of its values, so
    the comparison checks the record types as well."""
    records = [
        TraceRecord(0.0, "arrive", {"job": 1, "num": 8}),
        TraceRecord(1.0, "start", {"job": 1, "num": 8}),
        TraceRecord(5.0, "finish", {"job": 1, "num": 8}),
    ]
    meta = {"machine_size": 320}
    result, reference = replay(records, meta), reference_replay(records, meta)
    assert replay_differences(result, reference) == []
    as_tuples = replace(result, records=[tuple(r) for r in result.records])
    assert as_tuples.records == result.records
    assert replay_differences(as_tuples, reference) == ["records"]
