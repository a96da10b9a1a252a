"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import SimulationRunner
from repro.obs.trace_io import read_trace
from repro.sim.trace import TraceRecord
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, Workload
from repro.workload.job import Job, JobKind
from repro.workload.twostage import TwoStageSizeConfig


def batch_job(
    job_id: int,
    submit: float = 0.0,
    num: int = 32,
    estimate: float = 100.0,
    actual: float | None = None,
) -> Job:
    """Concise batch-job builder for unit tests."""
    return Job(job_id=job_id, submit=submit, num=num, estimate=estimate, actual=actual)


def dedicated_job(
    job_id: int,
    submit: float = 0.0,
    num: int = 32,
    estimate: float = 100.0,
    requested_start: float = 50.0,
) -> Job:
    """Concise dedicated-job builder for unit tests."""
    return Job(
        job_id=job_id,
        submit=submit,
        num=num,
        estimate=estimate,
        kind=JobKind.DEDICATED,
        requested_start=requested_start,
    )


def make_workload(
    jobs: list[Job],
    machine_size: int = 320,
    granularity: int = 32,
    eccs: list | None = None,
) -> Workload:
    """Wrap explicit jobs into a workload."""
    return Workload(
        jobs=jobs,
        eccs=eccs or [],
        machine_size=machine_size,
        granularity=granularity,
        description="test workload",
    )


def run_traced(workload, scheduler, **kwargs):
    """Run ``scheduler`` on ``workload`` to completion with ``trace_out``
    set; return the metrics and the records read back from the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        metrics = SimulationRunner(workload, scheduler, trace_out=path, **kwargs).run()
        return metrics, read_trace(path).records


def of_kind(records: list[TraceRecord], *kinds: str) -> list[TraceRecord]:
    """The records whose kind is among ``kinds``, in trace order."""
    return [r for r in records if r.kind in kinds]


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for statistical tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_batch_workload() -> Workload:
    """~60-job batch workload on the BlueGene/P-like machine."""
    config = GeneratorConfig(n_jobs=60, size=TwoStageSizeConfig(p_small=0.5))
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(7))


@pytest.fixture
def small_hetero_workload() -> Workload:
    """~60-job heterogeneous workload (half dedicated)."""
    config = GeneratorConfig(
        n_jobs=60, size=TwoStageSizeConfig(p_small=0.5), p_dedicated=0.5
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(8))


@pytest.fixture
def small_elastic_workload() -> Workload:
    """~60-job elastic batch workload (P_E=0.3, P_R=0.2)."""
    config = GeneratorConfig(
        n_jobs=60, size=TwoStageSizeConfig(p_small=0.5), p_extend=0.3, p_reduce=0.2
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(9))
