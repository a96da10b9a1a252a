"""Tracing and telemetry must never change scheduling decisions.

The observability constraint of docs/observability.md, enforced for
every registered algorithm: a run with ``trace_out`` produces metrics
equal to the same run without it, and the exported file is a valid
schema-versioned trace whose lifecycle records match the run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.parallel import RunSpec, execute_spec
from repro.experiments.sweep import run_algorithms
from repro.obs.analytics import replay
from repro.obs.inspect import summarize
from repro.obs.trace_io import read_meta, read_trace
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig


def _workload(name: str):
    """A small workload exercising what the policy can handle."""
    policy = make_scheduler(name)
    dedicated = 0.3 if policy.handles_dedicated else 0.0
    elastic = 0.3 if policy.elastic else 0.0
    config = GeneratorConfig(
        n_jobs=40, p_dedicated=dedicated, p_extend=elastic, p_reduce=elastic / 2
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(11))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_traced_equals_untraced(name, tmp_path):
    workload = _workload(name)
    untraced = execute_spec(RunSpec(workload=workload, algorithm=name))
    path = tmp_path / f"{name}.jsonl"
    traced = execute_spec(
        RunSpec(workload=workload, algorithm=name, trace_out=str(path))
    )
    assert traced == untraced

    meta = read_meta(path)
    assert meta["algorithm"] == name
    assert meta["machine_size"] == workload.machine_size

    records = read_trace(path).records
    summary = summarize(records)
    assert summary.kind_counts["finish"] == traced.n_jobs
    # The exported trace passes its own invariant checks.
    assert replay(records, {"machine_size": workload.machine_size}).findings == []


def test_run_algorithms_trace_mapping(tmp_path):
    workload = _workload("EASY")
    algorithms = ["EASY", "LOS"]
    plain = run_algorithms(workload, algorithms, jobs=1)
    traced = run_algorithms(
        workload,
        algorithms,
        jobs=1,
        trace_out={"EASY": str(tmp_path / "easy.jsonl")},
    )
    assert traced == plain
    assert (tmp_path / "easy.jsonl").exists()
    assert not (tmp_path / "los.jsonl").exists()


def test_telemetry_attached_but_excluded_from_equality():
    workload = _workload("Delayed-LOS")
    a = execute_spec(RunSpec(workload=workload, algorithm="Delayed-LOS"))
    b = execute_spec(RunSpec(workload=workload, algorithm="Delayed-LOS"))
    assert a.telemetry is not None and b.telemetry is not None
    # Deterministic counters agree between repeat runs...
    assert a.telemetry.counters == b.telemetry.counters
    assert a.telemetry.counters["dp_invocations"] > 0
    # ...while wall timers differ without breaking metric equality.
    assert a == b
