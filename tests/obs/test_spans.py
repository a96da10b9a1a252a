"""Phase spans: recorder arithmetic, Chrome export, runner integration."""

from __future__ import annotations

import filecmp
import json

import numpy as np
import pytest

from repro.core.registry import make_scheduler
from repro.durable.checkpoint import CheckpointConfig
from repro.experiments.runner import SimulationRunner, simulate
from repro.obs import spans
from repro.obs.spans import PHASES, SpanRecorder, activated, begin, current, end, phase_table
from repro.obs.telemetry import Telemetry
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.transform import make_malleable
from repro.workload.twostage import TwoStageSizeConfig


def generate(seed=11, n_jobs=60, p_extend=0.3, p_reduce=0.2):
    config = GeneratorConfig(
        n_jobs=n_jobs,
        size=TwoStageSizeConfig(p_small=0.5),
        p_extend=p_extend,
        p_reduce=p_reduce,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


def clocked(monkeypatch, *stamps, **kwargs):
    """A recorder whose clock reads ``stamps`` in order (origin 0.0)."""
    readings = iter((0.0, *stamps))
    monkeypatch.setattr(spans, "perf_counter", lambda: next(readings))
    return SpanRecorder(**kwargs)


class TestRecorderAggregation:
    def test_nested_spans_attribute_self_time(self, monkeypatch):
        recorder = clocked(monkeypatch, 10.0, 11.0, 14.0, 20.0)
        outer = recorder.begin("schedule_cycle")
        inner = recorder.begin("dp_solve")
        recorder.end(inner)
        recorder.end(outer)
        assert recorder.phases["dp_solve"] == [1, 3.0, 3.0]
        # 10s total, 3s of it inside the child.
        assert recorder.phases["schedule_cycle"] == [1, 10.0, 7.0]

    def test_root_spans_accumulate_root_child(self, monkeypatch):
        recorder = clocked(monkeypatch, 0.0, 4.0, 5.0, 6.0)
        token = recorder.begin("schedule_cycle")
        recorder.end(token)
        token = recorder.begin("ecc_apply")
        recorder.end(token)
        assert recorder.root_child == 5.0

    def test_add_bulk_folds_batch_totals(self):
        recorder = SpanRecorder()
        recorder.add_bulk("event", 100, 2.0, 1.5)
        recorder.add_bulk("event", 50, 1.0, 0.5)
        assert recorder.phases["event"] == [150, 3.0, 2.0]

    def test_add_bulk_ignores_empty_batches(self):
        recorder = SpanRecorder()
        recorder.add_bulk("event", 0, 0.0, 0.0)
        assert "event" not in recorder.phases

    def test_bulk_plus_root_child_models_engine_accounting(self, monkeypatch):
        # The runner's event bracket: actions open root-level spans;
        # their cumulative time is subtracted from the batch self time.
        recorder = clocked(monkeypatch, 1.0, 3.0)
        before = recorder.root_child
        token = recorder.begin("schedule_cycle")
        recorder.end(token)
        child = recorder.root_child - before
        recorder.add_bulk("event", 10, 5.0, 5.0 - child)
        assert recorder.phases["event"] == [10, 5.0, 3.0]

    def test_aggregate_mode_keeps_no_timeline(self):
        recorder = SpanRecorder()
        token = recorder.begin("dp_solve")
        recorder.end(token)
        assert recorder.events == []
        assert recorder.events_dropped == 0

    def test_timeline_mode_records_slices_in_end_order(self, monkeypatch):
        recorder = clocked(monkeypatch, 1.0, 2.0, 3.0, 5.0, timeline=True)
        outer = recorder.begin("schedule_cycle")
        inner = recorder.begin("dp_solve")
        recorder.end(inner)
        recorder.end(outer)
        assert recorder.events == [
            ("dp_solve", 2.0, 1.0),
            ("schedule_cycle", 1.0, 4.0),
        ]

    def test_add_slice_shares_the_cap_with_end(self):
        recorder = SpanRecorder(max_events=2, timeline=True)
        recorder.end(recorder.begin("schedule_cycle"))
        recorder.add_slice("event", recorder._origin + 1.0, 0.5)
        recorder.add_slice("event", recorder._origin + 2.0, 0.5)
        assert [name for name, _, _ in recorder.events] == ["schedule_cycle", "event"]
        assert recorder.events[1][1:] == (1.0, 0.5)
        assert recorder.events_dropped == 1

    def test_timeline_buffer_cap_counts_drops(self):
        recorder = SpanRecorder(max_events=2, timeline=True)
        for _ in range(5):
            recorder.end(recorder.begin("event"))
        assert len(recorder.events) == 2
        assert recorder.events_dropped == 3
        # Aggregation is unaffected by the export cap.
        assert recorder.phases["event"][0] == 5

    def test_span_context_manager(self):
        recorder = SpanRecorder()
        with recorder.span("backfill"):
            pass
        assert recorder.phases["backfill"][0] == 1

    def test_fold_into_writes_catalogued_names(self):
        telemetry = Telemetry()
        recorder = SpanRecorder(max_events=1, timeline=True)
        recorder.end(recorder.begin("dp_solve"))
        recorder.end(recorder.begin("dp_solve"))
        recorder.fold_into(telemetry)
        snapshot = telemetry.snapshot()
        assert snapshot.counter("span_dp_solve") == 2
        assert snapshot.timer("span_dp_solve_s") >= 0.0
        assert snapshot.timer("span_dp_solve_self_s") >= 0.0
        assert snapshot.counter("span_events_dropped") == 1


class TestModuleHook:
    def test_begin_is_none_without_recorder(self):
        assert current() is None
        assert begin("dp_solve") is None
        end(None)  # no-op, must not raise

    def test_activated_installs_and_restores(self):
        recorder = SpanRecorder()
        with activated(recorder) as active:
            assert active is recorder
            assert current() is recorder
            token = begin("dp_solve")
            assert token is not None
            end(token)
        assert current() is None
        assert recorder.phases["dp_solve"][0] == 1

    def test_phases_catalog_is_stable(self):
        # The counter-catalog checker and docs expand from this tuple.
        assert PHASES == (
            "event",
            "schedule_cycle",
            "dp_solve",
            "backfill",
            "profile_rebuild",
            "ecc_apply",
            "checkpoint_save",
            "trace_flush",
        )


class TestChromeExport:
    @pytest.fixture
    def recorder(self, monkeypatch):
        recorder = clocked(monkeypatch, 0.001, 0.002, 0.0025, 0.004, timeline=True)
        outer = recorder.begin("schedule_cycle")
        inner = recorder.begin("dp_solve")
        recorder.end(inner)
        recorder.end(outer)
        return recorder

    def test_chrome_trace_shape(self, recorder):
        doc = recorder.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["dp_solve", "schedule_cycle"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 0 and event["tid"] == 0
        # Microsecond timestamps.
        assert events[0]["ts"] == pytest.approx(2000.0)
        assert events[0]["dur"] == pytest.approx(500.0)

    def test_write_matches_document_values(self, recorder, tmp_path):
        path = tmp_path / "spans.json"
        recorder.write_chrome_trace(path)
        written = json.loads(path.read_text())
        doc = recorder.chrome_trace()
        assert written["displayTimeUnit"] == doc["displayTimeUnit"]
        assert len(written["traceEvents"]) == len(doc["traceEvents"])
        for got, expected in zip(written["traceEvents"], doc["traceEvents"]):
            assert got["name"] == expected["name"]
            assert got["ts"] == pytest.approx(expected["ts"], abs=1e-3)
            assert got["dur"] == pytest.approx(expected["dur"], abs=1e-3)

    def test_write_creates_parent_dirs(self, recorder, tmp_path):
        path = tmp_path / "deep" / "nested" / "spans.json"
        recorder.write_chrome_trace(path)
        assert json.loads(path.read_text())["traceEvents"]


class TestPhaseTable:
    def test_sorts_by_self_time_and_shares(self):
        telemetry = Telemetry()
        telemetry.count("span_dp_solve", 5)
        telemetry.add_time("span_dp_solve_s", 0.25)
        telemetry.add_time("span_dp_solve_self_s", 0.25)
        telemetry.count("span_schedule_cycle", 2)
        telemetry.add_time("span_schedule_cycle_s", 1.0)
        telemetry.add_time("span_schedule_cycle_self_s", 0.75)
        telemetry.add_time("run_wall_s", 1.0)
        table = phase_table(telemetry.snapshot())
        lines = table.splitlines()
        assert lines[0].startswith("phase")
        # schedule_cycle has more self time: listed first.
        assert lines[2].startswith("schedule_cycle")
        assert "75.0%" in lines[2]

    def test_empty_snapshot_hint(self):
        assert "spans enabled" in phase_table(Telemetry().snapshot())


class TestRunnerIntegration:
    def test_spans_off_means_no_span_telemetry(self):
        metrics = simulate(generate(), make_scheduler("Delayed-LOS"))
        assert not any(
            name.startswith("span_") for name in metrics.telemetry.counters
        )

    def test_spans_on_aggregates_hot_phases(self):
        metrics = simulate(generate(), make_scheduler("Delayed-LOS"), spans=True)
        snapshot = metrics.telemetry
        assert snapshot.counter("span_event") > 0
        assert snapshot.counter("span_schedule_cycle") > 0
        assert snapshot.counter("span_dp_solve") > 0
        for phase in ("event", "schedule_cycle", "dp_solve"):
            cumulative = snapshot.timer(f"span_{phase}_s")
            self_time = snapshot.timer(f"span_{phase}_self_s")
            assert 0.0 <= self_time <= cumulative + 1e-12
        # Scheduling happens inside event dispatch: the runner's event
        # bracket must cover the cycles' cumulative time.
        assert snapshot.timer("span_event_s") >= snapshot.timer(
            "span_schedule_cycle_s"
        ) - 1e-9

    def test_metrics_equal_spans_on_and_off(self):
        baseline = simulate(generate(), make_scheduler("Hybrid-LOS-E"))
        spanned = simulate(generate(), make_scheduler("Hybrid-LOS-E"), spans=True)
        assert spanned == baseline  # telemetry is compare=False

    @pytest.mark.parametrize("algorithm", ["EASY", "Delayed-LOS", "Malleable-Backfill"])
    def test_traces_byte_identical_spans_on_off(self, tmp_path, algorithm):
        workload = generate()
        if algorithm.startswith("Malleable"):
            workload = make_malleable(workload, 0.5, seed=3)
        off = tmp_path / "off.jsonl"
        on = tmp_path / "on.jsonl"
        simulate(workload, make_scheduler(algorithm), trace_out=str(off))
        simulate(
            workload,
            make_scheduler(algorithm),
            trace_out=str(on),
            spans=True,
            spans_out=str(tmp_path / "spans.json"),
        )
        assert filecmp.cmp(off, on, shallow=False)

    def test_spans_out_writes_loadable_timeline(self, tmp_path):
        path = tmp_path / "spans.json"
        simulate(generate(), make_scheduler("EASY"), spans_out=str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = {event["name"] for event in doc["traceEvents"]}
        assert "event" in names and "schedule_cycle" in names

    @pytest.mark.parametrize("drive", ["plain", "split", "checkpointed"])
    def test_phase_self_times_sum_to_run_wall(self, tmp_path, drive):
        workload = generate(n_jobs=120)
        runner = SimulationRunner(
            workload, make_scheduler("Hybrid-LOS-E"), spans=True,
            trace_out=tmp_path / "run.jsonl",
        )
        if drive == "plain":
            metrics = runner.run()
        elif drive == "split":
            # Horizons inside the run, so every segment fires events.
            middle = workload.jobs[len(workload.jobs) // 2].submit
            runner.run(until=workload.jobs[10].submit)
            runner.run(until=middle)
            metrics = runner.run()
        else:
            metrics = runner.run(checkpoint=CheckpointConfig(
                dir=tmp_path / "ck", every_events=40
            ))
            assert metrics.telemetry.counter("span_checkpoint_save") > 0
        snapshot = metrics.telemetry
        self_times = [
            value for name, value in snapshot.timers.items()
            if name.startswith("span_") and name.endswith("_self_s")
        ]
        assert sum(self_times) == pytest.approx(snapshot.timer("run_wall_s"), rel=1e-9)
        assert snapshot.counter("span_event") == metrics.events_processed

    def test_recorder_detached_between_runs(self):
        runner = SimulationRunner(generate(), make_scheduler("EASY"), spans=True)
        runner.run()
        assert spans.current() is None


class TestProfileCli:
    def test_repro_profile_prints_phase_table(self, capsys):
        from repro.cli import repro_main

        assert repro_main(["profile", "--jobs", "40", "--algorithm", "EASY"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "schedule_cycle" in out

    def test_repro_profile_spans_out_and_cprofile(self, tmp_path, capsys):
        from repro.cli import repro_main

        spans_path = tmp_path / "spans.json"
        stats_path = tmp_path / "prof.stats"
        code = repro_main(
            [
                "profile",
                "--jobs",
                "30",
                "--spans-out",
                str(spans_path),
                "--cprofile",
                str(stats_path),
            ]
        )
        assert code == 0
        assert json.loads(spans_path.read_text())["traceEvents"]
        assert stats_path.stat().st_size > 0
