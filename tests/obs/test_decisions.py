"""Decision provenance: pass-over records, dedup, explain, durability."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as sim_main
from repro.core.base import DECISION_REASONS, REASON_FAULT_BACKOFF
from repro.core.registry import make_scheduler
from repro.durable.checkpoint import (
    CheckpointConfig,
    list_checkpoints,
    load_checkpoint,
)
from repro.experiments.runner import simulate
from repro.faults.model import FaultConfig, RetryPolicy
from repro.obs import explain
from repro.obs.trace_io import read_trace
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig


def generate(seed=11, n_jobs=60, p_extend=0.3, p_reduce=0.2):
    config = GeneratorConfig(
        n_jobs=n_jobs,
        size=TwoStageSizeConfig(p_small=0.5),
        p_extend=p_extend,
        p_reduce=p_reduce,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


def traced_run(tmp_path, algorithm, name, **kwargs):
    """Simulate with a trace attached; returns (metrics, trace path)."""
    path = tmp_path / f"{name}.jsonl"
    metrics = simulate(
        generate(), make_scheduler(algorithm), trace_out=str(path), **kwargs
    )
    return metrics, path


def decision_records(path):
    return [r for r in read_trace(path).records if r.kind == "decision"]


class TestDecisionRecords:
    @pytest.mark.parametrize("algorithm", ["EASY", "Delayed-LOS"])
    def test_congested_run_emits_known_reasons(self, tmp_path, algorithm):
        metrics, path = traced_run(tmp_path, algorithm, "run", decisions=True)
        decisions = decision_records(path)
        assert decisions, "a 60-job run must stall someone at least once"
        for record in decisions:
            assert record.data["reason"] in DECISION_REASONS
            assert record.data["job"] >= 0
            assert record.data["num"] > 0
        assert metrics.telemetry.counter("decisions_recorded") == len(decisions)

    def test_decisions_off_by_default(self, tmp_path):
        metrics, path = traced_run(tmp_path, "Delayed-LOS", "off")
        assert decision_records(path) == []
        assert metrics.telemetry.counter("decisions_recorded") == 0

    def test_consecutive_same_reason_deduplicated(self, tmp_path):
        _, path = traced_run(tmp_path, "Delayed-LOS", "dedup", decisions=True)
        last_reason = {}
        for record in decision_records(path):
            job, reason = record.data["job"], record.data["reason"]
            assert last_reason.get(job) != reason, (
                f"job {job} reported '{reason}' twice in a row"
            )
            last_reason[job] = reason

    @pytest.mark.parametrize("algorithm", ["EASY", "EASY-E", "EASY-D", "Delayed-LOS"])
    def test_observe_only_trace_suffix(self, tmp_path, algorithm):
        """Removing decision lines recovers the decisions-off trace.

        For EASY this also proves the full backfill scan, which runs
        only while decisions are recorded, starts the same jobs as the
        size-indexed ``first_backfill`` query.  Under EASY-E, ET/RT
        commands move queued estimates, so the query must also see
        the runner's re-index of its estimate column.
        """
        baseline, off = traced_run(tmp_path, algorithm, "off")
        recorded, on = traced_run(tmp_path, algorithm, "on", decisions=True)
        assert recorded == baseline  # telemetry is compare=False
        kept = [
            line
            for line in on.read_text(encoding="utf-8").splitlines(keepends=True)
            if json.loads(line).get("kind") != "decision"
        ]
        assert "".join(kept) == off.read_text(encoding="utf-8")
        assert len(kept) < len(on.read_text(encoding="utf-8").splitlines())

    def test_fault_backoff_reason(self, tmp_path):
        path = tmp_path / "faulty.jsonl"
        simulate(
            generate(),
            make_scheduler("EASY"),
            trace_out=str(path),
            decisions=True,
            faults=FaultConfig(p_job_fail=0.3, seed=5),
            retry=RetryPolicy(max_retries=3, backoff=300.0),
        )
        reasons = {r.data["reason"] for r in decision_records(path)}
        assert REASON_FAULT_BACKOFF in reasons


class TestDurability:
    def test_checkpoint_resume_reproduces_decision_trace(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        ckpt = tmp_path / "ckpt.jsonl"
        baseline = simulate(
            generate(),
            make_scheduler("Delayed-LOS"),
            trace_out=str(plain),
            decisions=True,
        )
        ckdir = tmp_path / "ck"
        checkpointed = simulate(
            generate(),
            make_scheduler("Delayed-LOS"),
            trace_out=str(ckpt),
            decisions=True,
            checkpoint=CheckpointConfig(dir=ckdir, every_events=60, keep=0),
        )
        assert checkpointed == baseline
        expected = plain.read_bytes()
        assert ckpt.read_bytes() == expected
        assert decision_records(plain), "the oracle needs decision records"

        checkpoints = list_checkpoints(ckdir)
        assert checkpoints
        middle = checkpoints[len(checkpoints) // 2]
        resumed = load_checkpoint(middle).run()
        assert resumed == baseline
        assert ckpt.read_bytes() == expected


class TestExplainCli:
    def test_renders_pass_over_provenance(self, tmp_path, capsys):
        _, path = traced_run(tmp_path, "Delayed-LOS", "run", decisions=True)
        decisions = decision_records(path)
        job = decisions[0].data["job"]
        assert explain.main([str(path), "--job", str(job)]) == 0
        out = capsys.readouterr().out
        assert "passed over" in out
        assert f"job {job}" in out

    def test_unknown_job_errors(self, tmp_path, capsys):
        _, path = traced_run(tmp_path, "EASY", "run", decisions=True)
        assert explain.main([str(path), "--job", "999999"]) != 0
        assert "error" in capsys.readouterr().err

    def test_without_decisions_hints_at_flag(self, tmp_path, capsys):
        _, path = traced_run(tmp_path, "EASY", "plain")
        job = read_trace(path).records[0].data["job"]
        assert explain.main([str(path), "--job", str(job)]) == 0
        assert "--decisions" in capsys.readouterr().out

    def test_umbrella_subcommand(self, tmp_path, capsys):
        from repro.cli import repro_main

        _, path = traced_run(tmp_path, "EASY", "run", decisions=True)
        job = read_trace(path).records[0].data["job"]
        assert repro_main(["explain", str(path), "--job", str(job)]) == 0


class TestSimCli:
    def test_decisions_requires_trace_out(self, capsys):
        assert sim_main(["--jobs", "10", "--decisions"]) == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_decisions_with_trace_out(self, tmp_path):
        out = tmp_path / "run.jsonl"
        code = sim_main(
            [
                "--jobs", "30",
                "--algorithms", "Delayed-LOS",
                "--trace-out", str(out),
                "--decisions",
            ]
        )
        assert code == 0
        assert out.exists()
