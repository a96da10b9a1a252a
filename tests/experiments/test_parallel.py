"""The parallel execution layer: determinism, ordering, fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

import repro.experiments.parallel as parallel_module
from repro.experiments.cache import RunCache
from repro.experiments.parallel import (
    ENV_JOBS,
    RunSpec,
    execute_runs,
    execute_spec,
    fork_available,
    resolve_jobs,
)
from repro.experiments.sweep import cs_sweep, load_sweep, run_algorithms
from repro.experiments.config import ExperimentConfig
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig

ALGORITHMS = ("EASY", "LOS", "Delayed-LOS")

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "7")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "5")
        assert resolve_jobs() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert resolve_jobs() >= 1

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()


class TestDeterminism:
    """The hard requirement: parallel == serial, bit for bit."""

    @needs_fork
    def test_parallel_metrics_identical_to_serial(self, small_batch_workload):
        serial = run_algorithms(small_batch_workload, ALGORITHMS, jobs=1)
        parallel = run_algorithms(small_batch_workload, ALGORITHMS, jobs=3)
        assert set(serial) == set(parallel)
        for name in ALGORITHMS:
            assert serial[name] == parallel[name], name

    @needs_fork
    def test_parallel_elastic_hetero_identical(self, small_hetero_workload):
        names = ("EASY-DE", "LOS-DE", "Hybrid-LOS-E")
        serial = run_algorithms(small_hetero_workload, names, jobs=1)
        parallel = run_algorithms(small_hetero_workload, names, jobs=2)
        for name in names:
            assert serial[name] == parallel[name], name

    @needs_fork
    def test_execute_runs_preserves_spec_order(self, small_batch_workload):
        specs = [
            RunSpec(small_batch_workload, name, max_skip_count=cs)
            for cs in (3, 7)
            for name in ALGORITHMS
        ]
        results = execute_runs(specs, jobs=4)
        assert [m.algorithm for m in results] == [s.algorithm for s in specs]
        for spec, metrics in zip(specs, results):
            assert metrics == execute_spec(spec)

    @needs_fork
    def test_load_sweep_parallel_identical(self):
        config = ExperimentConfig(
            generator=GeneratorConfig(n_jobs=40, size=TwoStageSizeConfig(p_small=0.5)),
            algorithms=("EASY", "LOS"),
            loads=(0.7, 0.9),
            seed=5,
        )
        serial = load_sweep(config, jobs=1)
        parallel = load_sweep(config, jobs=2)
        assert serial.sweep_values == parallel.sweep_values
        for name in serial.series:
            assert serial.series[name] == parallel.series[name]

    @needs_fork
    def test_cs_sweep_parallel_identical(self):
        config = ExperimentConfig(
            generator=GeneratorConfig(n_jobs=40, size=TwoStageSizeConfig(p_small=0.5)),
            algorithms=("EASY", "Delayed-LOS"),
            seed=9,
        )
        serial = cs_sweep(config, cs_values=(1, 5), target_load=0.9, jobs=1)
        parallel = cs_sweep(config, cs_values=(1, 5), target_load=0.9, jobs=2)
        assert serial.sweep_values == parallel.sweep_values
        for name in serial.series:
            assert serial.series[name] == parallel.series[name]


class TestFallbacks:
    def test_serial_path_for_jobs_one(self, small_batch_workload):
        results = run_algorithms(small_batch_workload, ALGORITHMS, jobs=1)
        assert set(results) == set(ALGORITHMS)
        for name, metrics in results.items():
            assert metrics.algorithm == name
            assert metrics.n_jobs > 0

    def test_implicit_jobs_small_batch_stays_serial(self, small_batch_workload,
                                                    monkeypatch):
        # 3 runs x 60 jobs is below the implicit-parallelism threshold;
        # this must run (serially) without touching any pool machinery.
        monkeypatch.delenv(ENV_JOBS, raising=False)
        results = run_algorithms(small_batch_workload, ALGORITHMS)
        assert len(results) == 3

    def test_unknown_algorithm_raises(self, small_batch_workload):
        with pytest.raises(KeyError, match="NOPE"):
            run_algorithms(small_batch_workload, ("EASY", "NOPE"), jobs=1)

    @needs_fork
    def test_unknown_algorithm_raises_in_parallel(self, small_batch_workload):
        with pytest.raises(KeyError, match="NOPE"):
            run_algorithms(
                small_batch_workload, ("EASY", "LOS", "NOPE"), jobs=2
            )


class TestEventsProcessed:
    def test_metrics_carry_event_count(self, small_batch_workload):
        metrics = execute_spec(RunSpec(small_batch_workload, "EASY"))
        # At minimum one arrival, one cycle and one finish per job.
        assert metrics.events_processed >= 2 * metrics.n_jobs


def _double(x: int) -> int:
    return x * 2


class TestWarmPool:
    """The persistent pool: reuse, invalidation, kill switch."""

    @pytest.fixture(autouse=True)
    def _clean_pool(self):
        # Start from a cold pool (earlier tests may have warmed it)
        # and leave no forked workers behind for later ones.
        parallel_module.shutdown_warm_pool()
        yield
        parallel_module.shutdown_warm_pool()

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv(parallel_module.ENV_WARM_POOL, "0")
        assert not parallel_module.warm_pool_enabled()
        assert parallel_module.warm_pool(2) == 0.0
        assert parallel_module._warm_pool is None

    @needs_fork
    def test_pool_is_reused_across_batches(self):
        spinup = parallel_module.warm_pool(2)
        assert spinup >= 0.0
        first = parallel_module._warm_pool
        assert first is not None
        pool, owns = parallel_module._acquire_pool(2)
        assert pool is first
        assert not owns  # warm pool stays alive after the batch

    @needs_fork
    def test_already_warm_costs_nothing(self):
        parallel_module.warm_pool(2)
        assert parallel_module.warm_pool(2) == 0.0

    @needs_fork
    def test_env_change_invalidates(self, monkeypatch):
        parallel_module.warm_pool(2)
        first = parallel_module._warm_pool
        # Workers snapshot os.environ at fork; a changed environment
        # must recycle them or REPRO_TRACE_VALIDATE etc. would be stale.
        monkeypatch.setenv("REPRO_TRACE_VALIDATE", "1")
        pool, owns = parallel_module._acquire_pool(2)
        assert pool is not first
        assert not owns

    @needs_fork
    def test_worker_count_change_invalidates(self):
        parallel_module.warm_pool(2)
        first = parallel_module._warm_pool
        pool, _ = parallel_module._acquire_pool(1)
        assert pool is not first

    @needs_fork
    def test_shutdown_is_idempotent(self):
        parallel_module.warm_pool(2)
        parallel_module.shutdown_warm_pool()
        assert parallel_module._warm_pool is None
        parallel_module.shutdown_warm_pool()  # second call is a no-op

    @needs_fork
    def test_chunked_batch_preserves_order(self):
        # More items than workers triggers chunked submission; results
        # must still align with the input order.
        landed = []
        results = parallel_module._map_resilient(
            _double, list(range(20)), 2,
            lambda index, value, retried: landed.append((index, value)),
        )
        assert results == [x * 2 for x in range(20)]
        assert sorted(landed) == [(i, i * 2) for i in range(20)]


class TestCacheIntegration:
    def test_warm_run_skips_simulation(self, small_batch_workload, tmp_path):
        cache = RunCache(root=tmp_path / "cache")
        cold = run_algorithms(
            small_batch_workload, ALGORITHMS, jobs=1, cache=cache
        )
        assert cache.stats.stores == len(ALGORITHMS)
        warm = run_algorithms(
            small_batch_workload, ALGORITHMS, jobs=1, cache=cache
        )
        assert cache.stats.hits == len(ALGORITHMS)
        for name in ALGORITHMS:
            assert cold[name] == warm[name], name
