"""Telemetry registry: counters, timers, the hook."""

from __future__ import annotations

import pickle

from repro.obs.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    activated,
    bump,
    current,
)


class TestRegistry:
    def test_counters_accumulate(self):
        telemetry = Telemetry()
        telemetry.count("passes")
        telemetry.count("passes", 4)
        assert telemetry.counters == {"passes": 5}

    def test_add_time_accumulates_wall_time(self):
        telemetry = Telemetry()
        telemetry.add_time("block", 0.25)
        telemetry.add_time("block", 0.5)
        assert telemetry.timers == {"block": 0.75}

    def test_snapshot_is_frozen_copy(self):
        telemetry = Telemetry()
        telemetry.count("n", 2)
        telemetry.add_time("wall", 1.0)
        snapshot = telemetry.snapshot()
        telemetry.count("n", 10)
        telemetry.add_time("wall", 9.0)
        assert snapshot.counter("n") == 2
        assert snapshot.timer("wall") == 1.0

    def test_snapshot_accessors_default(self):
        snapshot = TelemetrySnapshot()
        assert snapshot.counter("missing") == 0
        assert snapshot.timer("missing") == 0.0

    def test_as_columns_flattens_counters_and_timers(self):
        telemetry = Telemetry()
        telemetry.count("dp_cells", 7)
        telemetry.add_time("run_wall_s", 1.5)
        columns = telemetry.snapshot().as_columns()
        assert columns == {"dp_cells": 7.0, "run_wall_s": 1.5}

    def test_snapshot_is_picklable(self):
        # Snapshots ride inside RunMetrics through the fork pool and
        # the run cache; pickling must survive.
        telemetry = Telemetry()
        telemetry.count("n")
        telemetry.add_time("wall", 1.0)
        snapshot = telemetry.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot


class TestModuleHook:
    def test_bump_without_registry_is_noop(self):
        assert current() is None
        bump("orphan", 3)  # must not raise, must not leak anywhere
        assert current() is None

    def test_activated_installs_and_restores(self):
        outer = Telemetry()
        with activated(outer):
            assert current() is outer
            bump("n")
        assert current() is None
        assert outer.counters == {"n": 1}

    def test_activated_restores_previous_on_error(self):
        telemetry = Telemetry()
        try:
            with activated(telemetry):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current() is None
