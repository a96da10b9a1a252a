"""Resumable sweeps: the run cache records which specs finished."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import parallel
from repro.experiments.cache import RunCache
from repro.experiments.parallel import (
    RunSpec,
    SweepInterrupted,
    execute_runs,
    execute_spec,
)
from repro.experiments.sweep import run_algorithms
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig

ALGOS = ["EASY", "LOS", "Delayed-LOS"]


def generate(seed=4, n_jobs=40):
    config = GeneratorConfig(n_jobs=n_jobs, size=TwoStageSizeConfig(p_small=0.5))
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


def specs_for(workload):
    return [RunSpec(workload=workload, algorithm=name) for name in ALGOS]


def interrupt_second_run(monkeypatch):
    """Make the second simulated spec raise ``KeyboardInterrupt``.

    Returns the list of algorithms that ran to completion.
    """
    calls = []

    def interrupting(spec):
        if len(calls) == 1:
            raise KeyboardInterrupt
        calls.append(spec.algorithm)
        return execute_spec(spec)

    monkeypatch.setattr(parallel, "execute_spec", interrupting)
    return calls


class TestExecuteRunsResume:
    def test_complete_sweep_stores_every_spec(self, tmp_path):
        cache = RunCache(root=tmp_path / "cache")
        results = execute_runs(specs_for(generate()), jobs=1, cache=cache)
        assert len(results) == len(ALGOS)
        assert cache.stats.stores == len(ALGOS)

    def test_interrupt_lands_partial_progress(self, tmp_path, monkeypatch):
        # Simulate a Ctrl-C striking during the second run: the first
        # result must already be in the cache, and the batch must
        # surface SweepInterrupted with counts.
        workload = generate()
        cache = RunCache(root=tmp_path / "cache")
        calls = interrupt_second_run(monkeypatch)
        with pytest.raises(SweepInterrupted) as info:
            execute_runs(specs_for(workload), jobs=1, cache=cache)
        assert info.value.completed == 1
        assert info.value.total == len(ALGOS)
        assert calls == ["EASY"]
        assert cache.stats.stores == 1

        # Re-running the same batch re-simulates only the remainder.
        monkeypatch.undo()
        cache2 = RunCache(root=tmp_path / "cache")
        results = execute_runs(specs_for(workload), jobs=1, cache=cache2)
        assert len(results) == len(ALGOS)
        assert cache2.stats.hits == 1  # EASY came back from the cache
        assert cache2.stats.stores == len(ALGOS) - 1

    def test_interrupt_without_cache_still_counts(self, monkeypatch):
        # Every interrupt reports its counts, kept or not.
        interrupt_second_run(monkeypatch)
        with pytest.raises(SweepInterrupted) as info:
            execute_runs(specs_for(generate()), jobs=1, cache=RunCache.disabled())
        assert (info.value.completed, info.value.total) == (1, len(ALGOS))
        assert isinstance(info.value, KeyboardInterrupt)

    def test_cached_results_identical_to_plain_run(self, tmp_path):
        workload = generate()
        plain = execute_runs(specs_for(workload), jobs=1, cache=RunCache.disabled())
        cached = execute_runs(
            specs_for(workload), jobs=1, cache=RunCache(root=tmp_path / "cache")
        )
        assert cached == plain


class TestRunAlgorithmsPlumbing:
    def test_cache_and_checkpoints_through_sweep_layer(self, tmp_path):
        workload = generate()
        cache = RunCache(root=tmp_path / "cache")
        results = run_algorithms(
            workload,
            ALGOS,
            jobs=1,
            cache=cache,
            checkpoint_dir=str(tmp_path / "ck"),
            checkpoint_every=100,
        )
        assert set(results) == set(ALGOS)
        assert cache.stats.stores == len(ALGOS)
        # Completed runs clean their checkpoints up (cache owns results).
        leftovers = list((tmp_path / "ck").rglob("*.ckpt"))
        assert leftovers == []

    def test_checkpointed_sweep_matches_plain(self, tmp_path):
        workload = generate()
        plain = run_algorithms(workload, ALGOS, jobs=1)
        durable = run_algorithms(
            workload,
            ALGOS,
            jobs=1,
            checkpoint_dir=str(tmp_path / "ck"),
            checkpoint_every=80,
        )
        assert durable == plain
