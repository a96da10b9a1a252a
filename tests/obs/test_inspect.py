"""The trace inspector: analysis functions and the ``repro trace`` CLI."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.cli import repro_main
from repro.experiments.parallel import RunSpec, execute_spec
from repro.obs.analytics import replay
from repro.obs.inspect import (
    filter_records,
    job_timeline,
    main as trace_main,
    summarize,
)
from repro.obs.trace_io import TRACE_SCHEMA, TraceReadError
from repro.sim.trace import TraceRecord
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig


def _lifecycle(job: int, arrive: float, start: float, finish: float, num: int = 32):
    return [
        TraceRecord(arrive, "arrive", {"job": job, "num": num}),
        TraceRecord(start, "start", {"job": job, "num": num}),
        TraceRecord(finish, "finish", {"job": job, "num": num}),
    ]


@pytest.fixture
def trace_file(tmp_path):
    """A real exported trace from a small EASY run."""
    workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=30)).generate(
        np.random.default_rng(3)
    )
    path = tmp_path / "easy.jsonl"
    execute_spec(RunSpec(workload=workload, algorithm="EASY", trace_out=str(path)))
    return path


class TestAnalysis:
    def test_summarize_counts_and_span(self):
        records = _lifecycle(1, 0.0, 10.0, 70.0) + _lifecycle(2, 5.0, 80.0, 90.0)
        records.sort(key=lambda r: r.time)
        summary = summarize(records)
        assert summary.n_records == 6
        assert summary.n_jobs == 2
        assert summary.kind_counts == {"arrive": 2, "start": 2, "finish": 2}
        assert summary.span == 90.0

    def test_job_timeline_orders_one_job(self):
        records = _lifecycle(1, 0.0, 10.0, 70.0) + _lifecycle(2, 5.0, 80.0, 90.0)
        timeline = job_timeline(records, 2)
        assert [r.kind for r in timeline] == ["arrive", "start", "finish"]
        assert all(r.data["job"] == 2 for r in timeline)

    def test_filter_by_kind_and_window(self):
        records = _lifecycle(1, 0.0, 10.0, 70.0)
        assert [r.kind for r in filter_records(records, kinds=["start"])] == ["start"]
        windowed = filter_records(records, t0=5.0, t1=20.0)
        assert [r.kind for r in windowed] == ["start"]

    def test_check_accepts_legal_trace(self):
        records = _lifecycle(1, 0.0, 10.0, 70.0)
        assert replay(records, {"machine_size": 320}).findings == []

    def test_check_flags_double_start(self):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 32}),
            TraceRecord(1.0, "start", {"job": 1, "num": 32}),
            TraceRecord(2.0, "start", {"job": 1, "num": 32}),
        ]
        findings = replay(records).findings
        assert any("not waiting" in f for f in findings)

    def test_check_flags_overallocation(self):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 300}),
            TraceRecord(0.0, "arrive", {"job": 2, "num": 300}),
            TraceRecord(1.0, "start", {"job": 1, "num": 300}),
            TraceRecord(1.0, "start", {"job": 2, "num": 300}),
        ]
        findings = replay(records, {"machine_size": 320}).findings
        assert any("exceeds machine size" in f for f in findings)

    def test_check_rejects_a_release_without_job(self):
        # An error, as in ``repro report``: skipping it would hide that
        # job 1 never finishes.
        records = _lifecycle(1, 0.0, 10.0, 70.0)
        records[2] = TraceRecord(70.0, "finish", {"num": 32})
        with pytest.raises(TraceReadError, match=re.escape(
            "record 3 ('finish') has no integer 'job' field"
        )):
            replay(records, {"machine_size": 320})

    @pytest.mark.parametrize(
        "view",
        [summarize, lambda r: job_timeline(r, 1), lambda r: filter_records(r, job_id=1)],
        ids=["summarize", "job_timeline", "filter_records"],
    )
    def test_views_reject_a_non_integer_job(self, view):
        records = _lifecycle(1, 0.0, 10.0, 70.0)
        records[1] = TraceRecord(10.0, "start", {"job": "x", "num": 32})
        with pytest.raises(TraceReadError, match=re.escape(
            "record 2 ('start') has no integer 'job' field"
        )):
            view(records)

    def test_requeue_allows_restart(self):
        # Fault-injection lifecycle: fail, requeue, run again.
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 32}),
            TraceRecord(1.0, "start", {"job": 1, "num": 32}),
            TraceRecord(2.0, "job-fail", {"job": 1, "num": 32}),
            TraceRecord(2.0, "requeue", {"job": 1, "num": 32}),
            TraceRecord(3.0, "start", {"job": 1, "num": 32}),
            TraceRecord(9.0, "finish", {"job": 1, "num": 32}),
        ]
        assert replay(records, {"machine_size": 320}).findings == []


class TestCli:
    def test_summary_and_check_ok(self, trace_file, capsys):
        assert trace_main([str(trace_file), "--check"]) == 0
        out = capsys.readouterr().out
        assert "meta: " in out and "algorithm=EASY" in out
        assert "checks: OK" in out

    def test_job_filter_prints_timeline(self, trace_file, capsys):
        assert trace_main([str(trace_file), "--job", "1"]) == 0
        out = capsys.readouterr().out
        assert "filter matched" in out
        assert "arrive(job=1" in out

    def test_cli_replays_the_file_once(self, trace_file, capsys, monkeypatch):
        from repro.obs import analytics, inspect

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return replay(*args, **kwargs)

        monkeypatch.setattr(analytics, "replay", counting)
        monkeypatch.setattr(inspect, "replay", counting)
        assert trace_main([str(trace_file), "--job", "1", "--check"]) == 0
        assert "checks: OK" in capsys.readouterr().out
        assert len(calls) == 1

    def test_check_failure_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        lines = [json.dumps({"schema": TRACE_SCHEMA, "meta": {}})] + [
            json.dumps({"t": 1.0, "kind": "start", "data": {"job": 1, "num": 8}})
        ]
        path.write_text("\n".join(lines) + "\n")
        assert trace_main([str(path), "--check"]) == 1
        assert "CHECK FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("check", [[], ["--check"]], ids=["summary", "check"])
    @pytest.mark.parametrize("job", [None, "x"], ids=["missing", "not-int"])
    @pytest.mark.parametrize("kind", ["arrive", "start", "finish", "job-fail"])
    def test_record_without_integer_job_exits_two(self, tmp_path, capsys, kind, job, check):
        records = [
            {"t": 0.0, "kind": "arrive", "data": {"job": 1, "num": 8}},
            {"t": 1.0, "kind": "start", "data": {"job": 1, "num": 8}},
            {"t": 5.0, "kind": "finish", "data": {"job": 1, "num": 8}},
        ]
        broken = {"num": 8} if job is None else {"job": job, "num": 8}
        records.append({"t": 6.0, "kind": kind, "data": broken})
        path = tmp_path / "broken.jsonl"
        lines = [json.dumps({"schema": TRACE_SCHEMA, "meta": {"machine_size": 320}})]
        path.write_text("\n".join(lines + [json.dumps(r) for r in records]) + "\n")
        assert trace_main([str(path), *check]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            f"{path}: record 4 ({kind!r}) has no integer 'job' field"
        )
        assert captured.out == ""

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "missing.jsonl")]) == 2
        assert capsys.readouterr().err != ""

    def test_repro_umbrella_dispatch(self, trace_file, capsys):
        assert repro_main(["trace", str(trace_file)]) == 0
        assert "records over t=" in capsys.readouterr().out

    def test_repro_unknown_subcommand(self, capsys):
        assert repro_main(["frobnicate"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err


class TestElasticInvariants:
    """The --check elastic-policy invariants (post-command ``num``)."""

    def _elastic(self, job: int = 1, num: int = 8):
        return [
            TraceRecord(0.0, "arrive", {"job": job, "num": num}),
            TraceRecord(
                1.0, "ecc",
                {"job": job, "ecc_kind": "EP", "amount": 8,
                 "outcome": "applied-queued", "num": num + 8},
            ),
            TraceRecord(2.0, "start", {"job": job, "num": num + 8}),
            TraceRecord(60.0, "finish", {"job": job, "num": num + 8}),
        ]

    def test_consistent_expand_passes(self):
        assert replay(self._elastic(), {"machine_size": 320}).findings == []

    def test_ep_shrinking_flagged(self):
        records = self._elastic()
        records[1] = TraceRecord(
            1.0, "ecc",
            {"job": 1, "ecc_kind": "EP", "amount": 8,
             "outcome": "applied-queued", "num": 4},
        )
        findings = replay(records, {"machine_size": 320}).findings
        assert any("EP" in f and "shrank" in f for f in findings)

    def test_rp_growing_flagged(self):
        records = self._elastic()
        records[1] = TraceRecord(
            1.0, "ecc",
            {"job": 1, "ecc_kind": "RP", "amount": 8,
             "outcome": "applied-queued", "num": 16},
        )
        findings = replay(records, {"machine_size": 320}).findings
        assert any("RP" in f and "grew" in f for f in findings)

    def test_start_must_match_traced_size(self):
        records = self._elastic()
        # Start with the pre-ECC size: the allocation delta is missing.
        records[2] = TraceRecord(2.0, "start", {"job": 1, "num": 8})
        records[3] = TraceRecord(60.0, "finish", {"job": 1, "num": 8})
        findings = replay(records, {"machine_size": 320}).findings
        assert any("traced size" in f for f in findings)

    def test_release_must_match_allocation(self):
        records = self._elastic()
        records[3] = TraceRecord(60.0, "finish", {"job": 1, "num": 12})
        findings = replay(records, {"machine_size": 320}).findings
        assert any("releases" in f for f in findings)

    def test_size_above_machine_flagged(self):
        records = self._elastic()
        records[1] = TraceRecord(
            1.0, "ecc",
            {"job": 1, "ecc_kind": "EP", "amount": 999,
             "outcome": "applied-queued", "num": 400},
        )
        findings = replay(records, {"machine_size": 320}).findings
        assert any("exceeding" in f for f in findings)

    def test_resource_ecc_while_running_flagged(self):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 8}),
            TraceRecord(1.0, "start", {"job": 1, "num": 8}),
            TraceRecord(
                2.0, "ecc",
                {"job": 1, "ecc_kind": "EP", "amount": 8,
                 "outcome": "applied-running", "num": 16},
            ),
            TraceRecord(60.0, "finish", {"job": 1, "num": 8}),
        ]
        findings = replay(records, {"machine_size": 320}).findings
        assert any("while the job" in f for f in findings)

    def test_time_dimension_must_not_change_size(self):
        records = self._elastic()
        records[1] = TraceRecord(
            1.0, "ecc",
            {"job": 1, "ecc_kind": "ET", "amount": 600,
             "outcome": "applied-queued", "num": 99},
        )
        findings = replay(records, {"machine_size": 320}).findings
        assert any("time-dimension" in f for f in findings)

    def test_terminated_job_must_finish_at_that_instant(self):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 8}),
            TraceRecord(1.0, "start", {"job": 1, "num": 8}),
            TraceRecord(
                10.0, "ecc",
                {"job": 1, "ecc_kind": "RT", "amount": -999,
                 "outcome": "terminated-job", "num": 8},
            ),
            TraceRecord(50.0, "finish", {"job": 1, "num": 8}),
        ]
        findings = replay(records, {"machine_size": 320}).findings
        assert any("terminated by an ECC" in f for f in findings)
        # Same-instant finish passes.
        records[3] = TraceRecord(10.0, "finish", {"job": 1, "num": 8})
        assert replay(records, {"machine_size": 320}).findings == []

    def test_terminated_job_never_finishing_flagged(self):
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 8}),
            TraceRecord(1.0, "start", {"job": 1, "num": 8}),
            TraceRecord(
                10.0, "ecc",
                {"job": 1, "ecc_kind": "RT", "amount": -999,
                 "outcome": "terminated-job", "num": 8},
            ),
        ]
        findings = replay(records, {"machine_size": 320}).findings
        assert any("never finished" in f for f in findings)

    def test_legacy_traces_without_num_still_pass(self):
        """Pre-analytics ecc records (no num field) skip size checks."""
        records = [
            TraceRecord(0.0, "arrive", {"job": 1, "num": 8}),
            TraceRecord(
                1.0, "ecc",
                {"job": 1, "ecc_kind": "EP", "amount": 8,
                 "outcome": "applied-queued"},
            ),
            TraceRecord(2.0, "start", {"job": 1, "num": 16}),
            TraceRecord(60.0, "finish", {"job": 1, "num": 16}),
        ]
        assert replay(records, {"machine_size": 320}).findings == []


class TestOneReader:
    """``repro trace``, ``repro explain`` and ``repro report`` read a
    trace through one replay."""

    @staticmethod
    def _write(path, records):
        header = {"schema": TRACE_SCHEMA, "meta": {"machine_size": 320}}
        lines = [json.dumps(header)] + [json.dumps(record) for record in records]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_trace_and_explain_show_the_same_records(self, tmp_path, capsys):
        path = self._write(tmp_path / "ids.jsonl", [
            {"t": 0.0, "kind": "arrive", "data": {"job": "5", "num": 32}},
            {"t": 0.0, "kind": "arrive", "data": {"job": 6, "num": 32}},
            {"t": 1.0, "kind": "start", "data": {"job": 5, "num": 32}},
            {"t": 2.0, "kind": "start", "data": {"job": "6", "num": 32}},
            {"t": 9.0, "kind": "finish", "data": {"job": "5", "num": 32}},
            {"t": 10.0, "kind": "finish", "data": {"job": 6, "num": 32}},
        ])
        assert repro_main(["trace", path, "--job", "5"]) == 0
        listed = re.findall(r"^\[\s*(\S+)\] ", capsys.readouterr().out, re.M)
        assert repro_main(["explain", path, "--job", "5"]) == 0
        explained = re.findall(r"^  t=(\S+) ", capsys.readouterr().out, re.M)
        assert [float(t) for t in listed] == [float(t) for t in explained] == [0.0, 1.0, 9.0]

        assert repro_main(["explain", path, "--job", "7"]) != 0
        assert "no records for job 7" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trace", "explain", "report"])
    @pytest.mark.parametrize("trace", ["missing", "non-integer-job"])
    def test_unreadable_trace_exits_two(self, tmp_path, capsys, command, trace):
        path = str(tmp_path / "missing.jsonl")
        if trace == "non-integer-job":
            path = self._write(tmp_path / "bad.jsonl", [
                {"t": 0.0, "kind": "arrive", "data": {"job": "x", "num": 32}},
            ])
        extra = ["--job", "1"] if command == "explain" else []
        assert repro_main([command, path, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
