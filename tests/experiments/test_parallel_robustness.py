"""Hardened parallel execution: worker crashes, timeouts, stale cache.

The crash/timeout helpers are module-level (picklable) and misbehave
only in *forked children* — the pid differs from the parent's — so the
serial retry in the parent succeeds deterministically.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.experiments.cache import RunCache, run_key
from repro.experiments.parallel import (
    ENV_RUN_TIMEOUT,
    _map_resilient,
    fork_available,
    run_timeout,
)
from repro.metrics.records import RunMetrics

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

_PARENT_PID = os.getpid()


def _crash_in_child(x: int) -> int:
    if os.getpid() != _PARENT_PID and x == 2:
        os._exit(1)  # simulates an OOM-killed / segfaulted worker
    return x * 10


def _hang_in_child(x: int) -> int:
    if os.getpid() != _PARENT_PID:
        time.sleep(2.0)
    return x + 1


@needs_fork
class TestWorkerCrash:
    def test_crashed_worker_retries_serially(self) -> None:
        with pytest.warns(RuntimeWarning, match="retrying"):
            results = _map_resilient(_crash_in_child, [1, 2, 3], 2)
        assert results == [10, 20, 30]

    def test_timeout_retries_serially(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        monkeypatch.setenv(ENV_RUN_TIMEOUT, "0.2")
        with pytest.warns(RuntimeWarning, match="retrying"):
            results = _map_resilient(_hang_in_child, [1, 2], 2)
        assert results == [2, 3]

    def test_fn_exceptions_still_propagate(self) -> None:
        # A deterministic failure would fail the serial retry too, so
        # it must propagate instead of warn-and-retry.
        with pytest.raises(ZeroDivisionError):
            _map_resilient(_div, [1, 0], 2)


def _div(x: int) -> float:
    return 1 / x


class TestRunTimeoutEnv:
    def test_unset_means_no_bound(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.delenv(ENV_RUN_TIMEOUT, raising=False)
        assert run_timeout() is None

    def test_non_positive_means_no_bound(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        monkeypatch.setenv(ENV_RUN_TIMEOUT, "0")
        assert run_timeout() is None

    def test_invalid_value_raises(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv(ENV_RUN_TIMEOUT, "soon")
        with pytest.raises(ValueError, match=ENV_RUN_TIMEOUT):
            run_timeout()


class TestCacheSchemaValidation:
    def _metrics(self) -> RunMetrics:
        return RunMetrics.from_records(
            [],
            algorithm="EASY",
            machine_size=320,
            utilization=0.5,
            makespan=100.0,
            offered_load=0.9,
        )

    def test_entry_missing_new_fields_is_a_miss(self, tmp_path) -> None:
        cache = RunCache(root=tmp_path)
        key = "ab" + "0" * 62
        metrics = self._metrics()
        cache.put(key, metrics)
        assert cache.get(key) is not None

        # Rewrite the entry as an older-schema pickle: same class, but
        # the instance dict lacks a field added since.
        stale = RunMetrics.__new__(RunMetrics)
        stale.__dict__.update(metrics.__dict__)
        del stale.__dict__["lost_work"]
        with open(cache._path(key), "wb") as fh:
            pickle.dump(stale, fh)
        misses = cache.stats.misses
        assert cache.get(key) is None
        assert cache.stats.misses == misses + 1

    def test_non_metrics_entry_is_a_miss(self, tmp_path) -> None:
        cache = RunCache(root=tmp_path)
        key = "cd" + "0" * 62
        cache._path(key).parent.mkdir(parents=True)
        with open(cache._path(key), "wb") as fh:
            pickle.dump({"not": "metrics"}, fh)
        assert cache.get(key) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path) -> None:
        cache = RunCache(root=tmp_path)
        key = "ef" + "0" * 62
        cache._path(key).parent.mkdir(parents=True)
        cache._path(key).write_bytes(b"\x80garbage")
        assert cache.get(key) is None

    def test_fault_config_distinguishes_keys(self, small_batch_workload) -> None:
        from repro.faults.model import FaultConfig, RetryPolicy

        base = run_key(small_batch_workload, "EASY")
        faulty = run_key(
            small_batch_workload,
            "EASY",
            faults=FaultConfig(mtbf=1000.0, mttr=100.0),
        )
        retried = run_key(
            small_batch_workload,
            "EASY",
            faults=FaultConfig(mtbf=1000.0, mttr=100.0),
            retry=RetryPolicy(max_retries=1),
        )
        assert len({base, faulty, retried}) == 3
