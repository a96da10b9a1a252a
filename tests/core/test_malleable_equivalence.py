"""Declaring malleability ranges is observe-only for rigid policies.

Every pre-existing registry policy (all but Malleable-*) runs twice on
the same workload: once with ``min/pref/max`` ranges declared on half
of its batch jobs and once rigid.  The trace files must be
byte-identical, because only the Malleable-* schedulers initiate
resizes (docs/malleability.md), and every trace must pass the trace
oracle.  The Malleable-* policies must resize at least one job on the
ranged workload.  The inputs are those of ``repro sim --jobs 80
--seed 11 --p-extend 0.3 --p-reduce 0.1 --malleable 0.5``, with
``--p-dedicated 0.2`` for the dedicated-capable (-D) policies.
"""

from __future__ import annotations

import pytest

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.calibrate import calibrate_beta_arr
from repro.experiments.runner import simulate
from repro.obs.analytics import validate_trace_file
from repro.obs.trace_io import read_trace
from repro.workload.generator import GeneratorConfig
from repro.workload.transform import make_malleable
from repro.workload.twostage import TwoStageSizeConfig

SEED = 11
MALLEABLE = sorted(name for name in ALGORITHMS if name.startswith("Malleable-"))
PRE_EXISTING = sorted(name for name in ALGORITHMS if name not in MALLEABLE)
DEDICATED = ("EASY-D", "EASY-DE", "LOS-D", "LOS-DE")


def _workload(p_dedicated: float):
    config = GeneratorConfig(
        n_jobs=80,
        machine_size=320,
        size=TwoStageSizeConfig(p_small=0.5),
        p_dedicated=p_dedicated,
        p_extend=0.3,
        p_reduce=0.1,
    )
    return calibrate_beta_arr(config, 0.9, seed=SEED).workload


@pytest.fixture(scope="module")
def workloads():
    out = {}
    for key, p_dedicated in (("batch", 0.0), ("dedicated", 0.2)):
        rigid = _workload(p_dedicated)
        out[key] = {"rigid": rigid, "ranged": make_malleable(rigid, 0.5, seed=SEED)}
    return out


def _traced_run(workload, algorithm, path):
    metrics = simulate(workload, make_scheduler(algorithm), trace_out=path)
    validate_trace_file(str(path), metrics)
    return path.read_bytes()


def test_registry_split():
    assert len(PRE_EXISTING) == 19
    assert len(MALLEABLE) == 3
    assert set(DEDICATED) <= set(PRE_EXISTING)


@pytest.mark.parametrize("algorithm", PRE_EXISTING)
def test_declared_ranges_leave_traces_byte_identical(workloads, tmp_path, algorithm):
    pair = workloads["dedicated" if algorithm in DEDICATED else "batch"]
    assert any(job.is_malleable for job in pair["ranged"].jobs)
    rigid = _traced_run(pair["rigid"], algorithm, tmp_path / "rigid.jsonl")
    ranged = _traced_run(pair["ranged"], algorithm, tmp_path / "ranged.jsonl")
    assert rigid
    assert ranged == rigid


@pytest.mark.parametrize("algorithm", MALLEABLE)
def test_malleable_policies_resize_on_the_ranged_workload(workloads, tmp_path, algorithm):
    path = tmp_path / "ranged.jsonl"
    _traced_run(workloads["batch"]["ranged"], algorithm, path)
    resizes = [
        record
        for record in read_trace(path).records
        if record.kind == "ecc" and record.data.get("origin") == "scheduler"
    ]
    assert resizes
