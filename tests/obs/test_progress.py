"""Progress events: tracker semantics, reporter output, executor wiring."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.experiments.cache import RunCache
from repro.experiments.parallel import RunSpec, execute_runs, fork_available
from repro.obs.progress import (
    ProgressEvent,
    ProgressReporter,
    ProgressTracker,
    format_duration,
    format_event,
)
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def small_workload(seed: int = 7, n_jobs: int = 40):
    config = GeneratorConfig(n_jobs=n_jobs)
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


class TestTracker:
    def test_counts_and_kinds(self):
        events = []
        clock = iter(float(i) for i in range(10)).__next__
        tracker = ProgressTracker(total=4, callback=events.append, clock=clock)
        tracker.hit()
        tracker.hit()
        tracker.ran()
        tracker.ran(retried=True)
        assert [e.kind for e in events] == ["hit", "hit", "run", "retry"]
        last = events[-1]
        assert (last.done, last.total, last.cached, last.fresh, last.retried) == (
            4, 4, 2, 2, 1,
        )

    def test_eta_none_until_first_cold_run(self):
        events = []
        clock = iter([0.0, 1.0, 2.0]).__next__
        tracker = ProgressTracker(total=3, callback=events.append, clock=clock)
        tracker.hit()
        assert events[0].eta_s is None
        tracker.ran()
        # One cold run took 2s (elapsed), one run remains -> eta 2s.
        assert events[1].eta_s == pytest.approx(2.0)

    def test_cache_hits_do_not_skew_eta(self):
        events = []
        clock = iter([0.0, 4.0, 4.0, 4.0]).__next__
        tracker = ProgressTracker(total=4, callback=events.append, clock=clock)
        tracker.ran()      # 4s of cold work
        tracker.hit()      # free
        tracker.hit()      # free
        # eta = elapsed/fresh * remaining = 4/1 * 1
        assert events[-1].eta_s == pytest.approx(4.0)


class TestFormatting:
    def test_format_duration_tiers(self):
        assert format_duration(4.21) == "4.2s"
        assert format_duration(127) == "2m07s"
        assert format_duration(3725) == "1h02m"

    def test_format_event_mentions_retries(self):
        event = ProgressEvent("retry", 5, 8, 1, 4, 2, 10.0, 7.5)
        line = format_event(event)
        assert "5/8" in line and "serial-retried" in line

    def test_reporter_plain_stream_one_line_per_event(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter(ProgressEvent("run", 1, 2, 0, 1, 0, 1.0, 1.0))
        reporter(ProgressEvent("run", 2, 2, 0, 2, 0, 2.0, 0.0))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("runs 1/2")


class TestExecutorWiring:
    def test_serial_progress_events(self):
        workload = small_workload()
        specs = [RunSpec(workload=workload, algorithm=a) for a in ("EASY", "LOS")]
        events = []
        results = execute_runs(specs, jobs=1, progress=events.append)
        assert len(results) == 2
        assert [(e.kind, e.done, e.total) for e in events] == [
            ("run", 1, 2),
            ("run", 2, 2),
        ]

    @needs_fork
    def test_pool_progress_events_and_identical_results(self):
        workload = small_workload()
        algorithms = ("EASY", "LOS", "Delayed-LOS")
        specs = [RunSpec(workload=workload, algorithm=a) for a in algorithms]
        events = []
        with_progress = execute_runs(specs, jobs=2, progress=events.append)
        without = execute_runs(specs, jobs=1)
        assert [e.kind for e in events] == ["run"] * 3
        assert events[-1].done == events[-1].total == 3
        # Progress is observe-only: identical metrics either way.
        assert with_progress == without

    def test_cache_hits_reported_as_hits(self, tmp_path):
        workload = small_workload()
        cache = RunCache(root=tmp_path / "cache", enabled=True)
        specs = [RunSpec(workload=workload, algorithm=a) for a in ("EASY", "LOS")]
        execute_runs(specs, jobs=1, cache=cache)
        events = []
        execute_runs(specs, jobs=1, cache=cache, progress=events.append)
        assert [e.kind for e in events] == ["hit", "hit"]
        assert events[-1].cached == 2 and events[-1].fresh == 0

    def test_execute_runs_serial_progress(self):
        workload = small_workload()
        specs = [RunSpec(workload=workload, algorithm=a) for a in ("EASY", "LOS", "FCFS")]
        events = []
        out = execute_runs(specs, jobs=1, progress=events.append)
        assert [m.algorithm for m in out] == ["EASY", "LOS", "FCFS"]
        assert [(e.kind, e.done) for e in events] == [("run", 1), ("run", 2), ("run", 3)]
