"""`RunSpec` is the one declaration of a run's knobs.

Every field states, where it is declared, which part of the run reads
it, how it enters the run key, and whether it forces a simulation.
These tests hold the readers to that declaration: ``spec_key``,
``execute_spec``'s runner construction and ``execute_runs``' cache
bypass.  A field added without a role, or with a role its readers do
not honour, fails here.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

import repro.experiments.parallel as parallel_module
from repro.core.registry import make_scheduler
from repro.durable.checkpoint import resume
from repro.experiments.cache import RunCache
from repro.experiments.calibrate import CalibratedWorkload
from repro.experiments.parallel import (
    CHECKPOINT,
    KEY_ALWAYS,
    KEY_DIGEST,
    KEY_WHEN_SET,
    RUNNER,
    SCHEDULER,
    RunSpec,
    execute_runs,
    execute_spec,
    spec_key,
)
from repro.experiments.runner import SimulationRunner
from repro.faults.model import FaultConfig, RetryPolicy
from repro.obs.analytics import ENV_TRACE_VALIDATE
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig

FIELDS = {f.name: f for f in fields(RunSpec)}


def _workload(seed: int):
    config = GeneratorConfig(n_jobs=20, p_extend=0.2)
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


def _samples(tmp_path):
    """A value other than the base spec's for every field."""
    return {
        "workload": _workload(2),
        "algorithm": "LOS",
        "max_skip_count": 3,
        "lookahead": 10,
        "max_eccs_per_job": 1,
        "faults": FaultConfig(mtbf=40000.0, mttr=2000.0, seed=5),
        "retry": RetryPolicy(max_retries=1),
        "trace_out": str(tmp_path / "run.jsonl"),
        "checkpoint_dir": str(tmp_path / "ck"),
        "checkpoint_every": 10,
        "checkpoint_seconds": 60.0,
        "spans_out": str(tmp_path / "spans.json"),
        "spans": True,
        "decisions": True,
    }


@pytest.fixture
def base():
    return RunSpec(_workload(1), "EASY")


def test_every_field_declares_its_role(tmp_path):
    for name, f in FIELDS.items():
        assert f.metadata.get("reads") in (SCHEDULER, RUNNER, CHECKPOINT), name
        assert f.metadata.get("key") in (None, KEY_DIGEST, KEY_ALWAYS, KEY_WHEN_SET), name
        assert f.metadata.get("output") in (True, False), name
    # Every field has a sample below, so the key tests see each one.
    assert set(_samples(tmp_path)) == set(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_spec_key_hashes_exactly_the_keyed_fields(base, tmp_path, name):
    changed = replace(base, **{name: _samples(tmp_path)[name]})
    if FIELDS[name].metadata["key"] is None:
        assert spec_key(changed) == spec_key(base)
    else:
        assert spec_key(changed) != spec_key(base)


def test_spec_key_names_a_recipe_by_its_fields():
    config = GeneratorConfig(n_jobs=20)
    a = RunSpec(CalibratedWorkload(config, 0.8, 1), "EASY")
    assert spec_key(a) == spec_key(RunSpec(CalibratedWorkload(config, 0.8, 1), "EASY"))
    assert spec_key(a) != spec_key(RunSpec(CalibratedWorkload(config, 0.8, 2), "EASY"))


def test_declared_readers_take_the_fields_as_keywords(base):
    def keywords(fn):
        return {
            name
            for name, p in inspect.signature(fn).parameters.items()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        }

    assert set(base.knobs(RUNNER)) <= keywords(SimulationRunner)
    # The policy's name is make_scheduler's first argument.
    policy = base.knobs(SCHEDULER)
    assert "algorithm" in policy
    assert set(policy) - {"algorithm"} <= keywords(make_scheduler)
    # The checkpoint directory is resume's source.
    cadence = base.knobs(CHECKPOINT)
    assert "checkpoint_dir" in cadence
    assert set(cadence) - {"checkpoint_dir"} <= keywords(resume)


def test_execute_spec_hands_the_runner_its_runner_fields(base, tmp_path, monkeypatch):
    received = {}

    class Recorder:
        def __init__(self, **kwargs):
            received.update(kwargs)

        def run(self):
            return None

    monkeypatch.setattr(parallel_module, "SimulationRunner", Recorder)
    monkeypatch.delenv(ENV_TRACE_VALIDATE, raising=False)
    samples = _samples(tmp_path)
    spec = replace(base, **{
        name: samples[name] for name in FIELDS
        if FIELDS[name].metadata["reads"] == RUNNER and name != "workload"
    })
    execute_spec(spec)
    scheduler = received.pop("scheduler")
    assert scheduler.name == "EASY"
    assert received == {**spec.knobs(RUNNER), "workload": base.workload}


def test_output_fields_force_a_simulation(base, tmp_path):
    cache = RunCache(root=tmp_path / "cache")
    metrics = execute_runs([base], jobs=1, cache=cache)[0]
    # A marked entry, so a hit is told apart from a fresh run.
    cache.put(spec_key(base), dataclasses.replace(metrics, makespan=-1.0))
    samples = _samples(tmp_path)
    for name, f in FIELDS.items():
        if f.metadata["key"] is not None:
            continue
        spec = replace(base, **{name: samples[name]})
        result = execute_runs([spec], jobs=1, cache=cache)[0]
        assert spec.writes_output == f.metadata["output"]
        if f.metadata["output"]:
            assert result.makespan == metrics.makespan, f"{name} was served from the cache"
        else:
            assert result.makespan == -1.0, f"{name} bypassed the cache"
        cache.put(spec_key(base), dataclasses.replace(metrics, makespan=-1.0))
