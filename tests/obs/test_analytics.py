"""The trace-replay oracle: recomputed metrics must equal RunMetrics.

The acceptance bar of docs/observability.md: for every registered
algorithm, a traced run's trace-recomputed mean wait / response /
bounded slowdown / utilization / makespan agree with the simulator's
own :class:`~repro.metrics.records.RunMetrics` within 1e-9 relative
tolerance.  A committed golden fixture pins the replay semantics
against silent drift in both the exporter and the replayer.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.parallel import RunSpec, execute_spec
from repro.faults.model import FaultConfig, RetryPolicy, parse_faults_spec
from repro.obs.analytics import (
    REL_TOLERANCE,
    TraceOracleError,
    assert_consistent,
    cross_validate,
    recompute_metrics,
    replay,
    validate_trace_file,
)
from repro.obs.trace_io import TraceReadError, read_trace
from repro.sim.trace import TraceRecord
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig

FIXTURES = Path(__file__).parent / "fixtures"


def _workload(name: str, n_jobs: int = 40, seed: int = 11):
    """A small workload exercising what the policy can handle."""
    policy = make_scheduler(name)
    dedicated = 0.3 if policy.handles_dedicated else 0.0
    elastic = 0.3 if policy.elastic else 0.0
    config = GeneratorConfig(
        n_jobs=n_jobs, p_dedicated=dedicated, p_extend=elastic, p_reduce=elastic / 2
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


# ----------------------------------------------------------------------
# The oracle, for every registered algorithm
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_trace_recomputation_matches_run_metrics(name, tmp_path):
    workload = _workload(name)
    path = tmp_path / f"{name}.jsonl"
    metrics = execute_spec(
        RunSpec(workload=workload, algorithm=name, trace_out=str(path))
    )
    trace = read_trace(path)
    result = replay(trace.records, trace.meta)
    findings = cross_validate(result, metrics, rel_tol=REL_TOLERANCE)
    assert findings == [], "\n".join(findings)
    # assert_consistent is the hard-error twin — must not raise.
    assert_consistent(result, metrics)


def test_oracle_holds_under_faults(tmp_path):
    """Requeues and evictions exercise the latest-start semantics."""
    workload = _workload("Hybrid-LOS-E", n_jobs=60, seed=7)
    path = tmp_path / "faulty.jsonl"
    metrics = execute_spec(
        RunSpec(
            workload=workload,
            algorithm="Hybrid-LOS-E",
            trace_out=str(path),
            faults=parse_faults_spec("mtbf=40000,mttr=2000,seed=3,pfail=0.05"),
            retry=RetryPolicy(max_retries=2, backoff=10.0, checkpoint=True),
        )
    )
    validate_trace_file(str(path), metrics)  # raises on any mismatch


def test_oracle_holds_when_a_failure_follows_the_last_finish(tmp_path):
    """The poisoned last job crashes for the last time after every other
    job has finished, so the busy-level tracker keeps moving past the
    window end; more than 4,096 observations come before it."""
    workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=8000)).generate(
        np.random.default_rng(0)
    )
    last = max(workload.jobs, key=lambda job: (job.submit, job.job_id))
    path = tmp_path / "poisoned.jsonl"
    metrics = execute_spec(
        RunSpec(
            workload=workload,
            algorithm="EASY",
            trace_out=str(path),
            faults=FaultConfig(seed=1, poison_jobs=(last.job_id,)),
            retry=RetryPolicy(max_retries=3, backoff=50000.0),
        )
    )
    assert metrics.failed_jobs == 1
    validate_trace_file(str(path), metrics)  # raises on any mismatch


def test_oracle_detects_tampering(tmp_path):
    workload = _workload("EASY")
    path = tmp_path / "t.jsonl"
    metrics = execute_spec(
        RunSpec(workload=workload, algorithm="EASY", trace_out=str(path))
    )
    trace = read_trace(path)
    # Nudge one record's finish time: every derived metric shifts.
    tampered = [
        TraceRecord(r.time + 250.0, r.kind, r.data) if r.kind == "finish" else r
        for r in trace.records[:-1]
    ] + [trace.records[-1]]
    findings = cross_validate(replay(tampered, trace.meta), metrics)
    assert findings
    with pytest.raises(TraceOracleError) as excinfo:
        assert_consistent(replay(tampered, trace.meta), metrics, context="tampered")
    assert "tampered" in str(excinfo.value)
    assert "mean_runtime" in str(excinfo.value)


def test_validate_env_hook_runs_oracle(tmp_path, monkeypatch):
    """REPRO_TRACE_VALIDATE=1 arms the oracle inside execute_spec."""
    monkeypatch.setenv("REPRO_TRACE_VALIDATE", "1")
    workload = _workload("LOS")
    metrics = execute_spec(
        RunSpec(workload=workload, algorithm="LOS", trace_out=str(tmp_path / "v.jsonl"))
    )
    assert metrics.n_jobs == len(workload)  # a passing oracle is silent


# ----------------------------------------------------------------------
# Golden fixture: pins exporter + replayer semantics
# ----------------------------------------------------------------------
def test_golden_fixture_metrics():
    trace = read_trace(FIXTURES / "golden_easy.jsonl")
    expected = json.loads(
        (FIXTURES / "golden_easy.expected.json").read_text(encoding="utf-8")
    )
    assert trace.meta["algorithm"] == expected["algorithm"]
    recomputed = recompute_metrics(replay(trace.records, trace.meta))
    assert recomputed.n_jobs == expected["n_jobs"]
    for metric in (
        "mean_wait",
        "mean_runtime",
        "mean_response",
        "slowdown",
        "mean_bounded_slowdown",
        "utilization",
        "makespan",
    ):
        assert math.isclose(
            getattr(recomputed, metric), expected[metric], rel_tol=REL_TOLERANCE
        ), metric


# ----------------------------------------------------------------------
# Replay reconstruction details
# ----------------------------------------------------------------------
class TestReplay:
    def test_single_job_timeline(self):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 160}),
            TraceRecord(10.0, "start", {"job": 1, "num": 160}),
            TraceRecord(110.0, "finish", {"job": 1, "num": 160}),
        ]
        result = replay(records, meta={"machine_size": 320})
        assert result.start_time == 0.0
        assert result.last_finish == 110.0
        assert result.peak_level == 160
        assert result.utilization_steps == [(10.0, 160), (110.0, 0)]
        assert result.queue_depth == [(0.0, 1), (10.0, 0)]
        [record] = result.records
        assert record.wait == 10.0 and record.runtime == 100.0
        metrics = recompute_metrics(result)
        # 160 procs busy for 100 of 110 machine-seconds of 320.
        assert math.isclose(metrics.utilization, 160 * 100 / (320 * 110))

    def test_requeue_uses_latest_start(self):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 32}),
            TraceRecord(0.0, "start", {"job": 1, "num": 32}),
            TraceRecord(50.0, "job-fail", {"job": 1, "num": 32}),
            TraceRecord(50.0, "requeue", {"job": 1}),
            TraceRecord(60.0, "start", {"job": 1, "num": 32}),
            TraceRecord(160.0, "finish", {"job": 1, "num": 32}),
        ]
        result = replay(records, meta={"machine_size": 320})
        [record] = result.records
        assert record.wait == 60.0  # latest start - submit
        assert record.runtime == 100.0
        # Busy during [0, 50] and [60, 160], idle in between.
        assert result.busy_area() == 32 * 150

    def test_ecc_episodes_collected(self):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 32}),
            TraceRecord(
                1.0, "ecc",
                {"job": 1, "ecc_kind": "ET", "amount": 600.0,
                 "outcome": "applied-queued", "num": 32},
            ),
            TraceRecord(
                2.0, "ecc-dropped", {"job": 1, "ecc_kind": "RT"},
            ),
            TraceRecord(5.0, "start", {"job": 1, "num": 32}),
            TraceRecord(90.0, "finish", {"job": 1, "num": 32}),
        ]
        result = replay(records, meta={})
        assert len(result.ecc_episodes) == 2
        applied, dropped = result.ecc_episodes
        assert applied.applied and applied.kind == "ET"
        assert not dropped.applied
        assert dropped.outcome == "dropped-not-elastic"
        [record] = result.records
        assert record.eccs_applied == 1

    def test_empty_trace(self):
        result = replay([], meta={"machine_size": 320})
        assert result.records == []
        assert result.span == 0.0
        metrics = recompute_metrics(result)
        assert metrics.n_jobs == 0
        assert metrics.utilization == 0.0

    @pytest.mark.parametrize("kind", ["arrive", "start", "finish", "job-fail"])
    def test_record_without_a_job_is_a_read_error(self, kind):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 32}),
            TraceRecord(0.0, "start", {"job": 1, "num": 32}),
            TraceRecord(9.0, kind, {"num": 32}),
        ]
        with pytest.raises(
            TraceReadError, match=rf"^<records>: record 3 \('{kind}'\) has no integer 'job' field$"
        ):
            replay(records)

    def test_replay_takes_plain_field_tuples(self):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 160}),
            TraceRecord(0.0, "start", {"job": 1, "num": 160}),
            TraceRecord(100.0, "finish", {"job": 1, "num": 160}),
        ]
        meta = {"machine_size": 320}
        assert replay(map(tuple, records), meta) == replay(records, meta)


# ----------------------------------------------------------------------
# Scheduler-origin ECCs (Malleable-* runtime resizes)
# ----------------------------------------------------------------------
class TestSchedulerOriginEccs:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        from repro.workload.transform import make_malleable

        path = tmp_path_factory.mktemp("malleable") / "run.jsonl"
        workload = make_malleable(_workload("Malleable-Backfill", n_jobs=60), 0.6, seed=3)
        metrics = execute_spec(
            RunSpec(workload=workload, algorithm="Malleable-Backfill",
                    trace_out=str(path))
        )
        trace = read_trace(path)
        return metrics, trace

    def test_replay_tags_scheduler_origin(self, traced):
        _, trace = traced
        result = replay(trace.records, trace.meta)
        scheduler = [e for e in result.ecc_episodes if e.origin == "scheduler"]
        assert scheduler, "a congested malleable run must resize someone"
        for episode in scheduler:
            assert episode.applied

    def test_recompute_matches_run_metrics(self, traced):
        metrics, trace = traced
        result = replay(trace.records, trace.meta)
        assert cross_validate(result, metrics, rel_tol=REL_TOLERANCE) == []
        assert_consistent(result, metrics)

    def test_check_trace_accepts_running_resizes(self, traced):
        _, trace = traced
        machine = int(trace.meta["machine_size"])
        assert replay(trace.records, {"machine_size": machine}).findings == []
