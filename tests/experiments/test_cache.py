"""The content-addressed run cache: keys, round-trips, robustness."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.experiments.cache import (
    ENV_CACHE,
    ENV_CACHE_DIR,
    RunCache,
    run_key,
    workload_digest,
)
from repro.experiments.parallel import RunSpec, execute_spec
from repro.metrics.records import JobRecord
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, Workload
from repro.workload.twostage import TwoStageSizeConfig


def _workload(seed: int = 7, n_jobs: int = 30) -> Workload:
    config = GeneratorConfig(n_jobs=n_jobs, size=TwoStageSizeConfig(p_small=0.5))
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


class TestDigests:
    def test_digest_stable_across_instances(self):
        assert workload_digest(_workload()) == workload_digest(_workload())

    def test_digest_ignores_description(self):
        a, b = _workload(), _workload()
        b.description = "renamed"
        assert workload_digest(a) == workload_digest(b)

    def test_digest_changes_with_content(self):
        a, b = _workload(seed=7), _workload(seed=8)
        assert workload_digest(a) != workload_digest(b)

    def test_key_changes_with_algorithm_and_knobs(self):
        workload = _workload()
        base = run_key(workload, "EASY")
        assert run_key(workload, "LOS") != base
        assert run_key(workload, "EASY", max_skip_count=3) != base
        assert run_key(workload, "EASY", lookahead=10) != base
        assert run_key(workload, "EASY", max_eccs_per_job=1) != base
        assert run_key(workload, "EASY", version="0.0.0") != base

    def test_key_stable_for_same_inputs(self):
        assert run_key(_workload(), "EASY") == run_key(_workload(), "EASY")


class TestRoundTrip:
    def test_cache_hit_equals_cold_run(self, tmp_path):
        cache = RunCache(root=tmp_path)
        workload = _workload()
        spec = RunSpec(workload, "Delayed-LOS")
        cold = execute_spec(spec)
        key = run_key(workload, "Delayed-LOS")
        assert cache.get(key) is None  # genuinely cold
        cache.put(key, cold)
        warm = cache.get(key)
        assert warm == cold
        assert warm.records and {type(r) for r in warm.records} == {JobRecord}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_len_and_clear(self, tmp_path):
        cache = RunCache(root=tmp_path)
        metrics = execute_spec(RunSpec(_workload(), "EASY"))
        cache.put(run_key(_workload(), "EASY"), metrics)
        cache.put(run_key(_workload(), "LOS"), metrics)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = RunCache(root=tmp_path, enabled=False)
        metrics = execute_spec(RunSpec(_workload(), "EASY"))
        key = run_key(_workload(), "EASY")
        cache.put(key, metrics)
        assert cache.get(key) is None
        assert len(cache) == 0


class TestRobustness:
    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b"", b"\x80\x05"],
        ids=["text", "bad-opcode", "empty", "truncated"],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = RunCache(root=tmp_path)
        workload = _workload()
        key = run_key(workload, "EASY")
        cache.put(key, execute_spec(RunSpec(workload, "EASY")))
        path = cache._path(key)
        path.write_bytes(garbage)
        assert cache.get(key) is None

    def test_wrong_payload_type_is_a_miss(self, tmp_path):
        cache = RunCache(root=tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "metrics"}))
        assert cache.get(key) is None

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = RunCache(root=tmp_path)
        assert cache.get("00" + "f" * 62) is None
        assert cache.stats.misses == 1


class TestFromEnv:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE, raising=False)
        assert RunCache.from_env().enabled is False

    def test_enabled_and_redirected(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CACHE, "1")
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "alt"))
        cache = RunCache.from_env()
        assert cache.enabled is True
        assert str(cache.root) == str(tmp_path / "alt")
