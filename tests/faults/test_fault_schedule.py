"""Faulted runs pinned to fixed trace bytes.

The fault schedule is a function of the fault seed and of the order in
which the runner asks the injector: a node gap at construction, then
per failure the pset, its repair delay and the next gap; one stream
per (job, attempt) for crashes.  These digests were taken from the
runner before the injector stopped driving the run itself, so any
drift in a draw's stream or order, in the eviction or crash handling,
or in the checkpoint credit, changes the bytes.

Each run has pset and job faults, ``RetryPolicy(checkpoint=True)`` and
zero backoff, so a requeue lands in the failure's own instant and no
cancellation or command ever meets a job in backoff.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.registry import make_scheduler
from repro.experiments.runner import SimulationRunner
from repro.faults.model import FaultConfig, RetryPolicy
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.transform import make_malleable
from repro.workload.twostage import TwoStageSizeConfig

FAULTS = FaultConfig(mtbf=8000.0, mttr=3000.0, seed=9, p_job_fail=0.2)


def _workload(algorithm: str):
    config = GeneratorConfig(
        n_jobs=60,
        size=TwoStageSizeConfig(p_small=0.5),
        p_dedicated=0.2 if algorithm == "Hybrid-LOS-E" else 0.0,
        p_extend=0.3,
        p_reduce=0.1,
        p_cancel=0.1,
    )
    workload = CWFWorkloadGenerator(config).generate(np.random.default_rng(23))
    if algorithm == "Malleable-Backfill":
        workload = make_malleable(workload, 1.0, seed=23)
    return workload


#: SHA-256 of the trace records after the header (whose meta names the
#: version), per policy: dedicated jobs and ECCs under Hybrid-LOS-E,
#: malleable ranges under Malleable-Backfill, rigid jobs under EASY.
BODIES = {
    "EASY": "2338e075f3b26ac2e2d9184590051dfa34b61a16b1da94988322aec17a2c4542",
    "Hybrid-LOS-E": "2edde01f2c3518e975ed34869303e135fda9a8d9dd70e8c0fadfa650b849d7fe",
    "Malleable-Backfill": "e01f869994d32b588c11b4a7c7bd63eea7e7f18705dfbe124675bd550951ed70",
}


@pytest.mark.parametrize("algorithm", sorted(BODIES))
def test_faulted_trace_bytes_are_pinned(tmp_path, algorithm):
    path = tmp_path / "trace.jsonl"
    metrics = SimulationRunner(
        _workload(algorithm),
        make_scheduler(algorithm),
        trace_out=path,
        faults=FAULTS,
        retry=RetryPolicy(checkpoint=True),
    ).run()
    assert metrics.node_failures > 0 and metrics.requeue_count > 0
    body = path.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == BODIES[algorithm]
