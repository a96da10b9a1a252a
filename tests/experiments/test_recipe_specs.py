"""Specs that name their workload by calibration recipe.

A :class:`~repro.experiments.calibrate.CalibratedWorkload` spec must be
small on the wire, calibrate once per point, be addressable by the run
cache without calibrating, and stand for the same workload in every
process.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.experiments.parallel as parallel_module
from repro.experiments.cache import RunCache, workload_digest
from repro.experiments.calibrate import CalibratedWorkload, calibrate_beta_arr
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import ELASTIC_HETERO_ALGORITHMS
from repro.experiments.parallel import (
    RunSpec,
    execute_runs,
    execute_spec,
    resolve_workload,
    spec_key,
)
from repro.experiments.sweep import load_sweep
from repro.workload.generator import GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig

SRC = Path(parallel_module.__file__).resolve().parents[2]

ELASTIC_HETERO = GeneratorConfig(
    n_jobs=500,
    size=TwoStageSizeConfig(p_small=0.5),
    p_dedicated=0.5,
    p_extend=0.2,
    p_reduce=0.1,
)

SWEEP = ExperimentConfig(
    generator=GeneratorConfig(n_jobs=60, size=TwoStageSizeConfig(p_small=0.5)),
    algorithms=("EASY", "LOS", "Delayed-LOS"),
    loads=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    seed=3,
)


@pytest.fixture
def calibrations(monkeypatch):
    """Count calibrations made by recipe resolution, from a cold memo."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return calibrate_beta_arr(*args, **kwargs)

    monkeypatch.setattr(parallel_module, "calibrate_beta_arr", counting)
    parallel_module._resolve_recipe.cache_clear()
    yield calls
    parallel_module._resolve_recipe.cache_clear()


def test_recipe_spec_pickles_small():
    spec = RunSpec(CalibratedWorkload(ELASTIC_HETERO, 0.9, 11), "Hybrid-LOS-E")
    assert len(pickle.dumps(spec)) < 2048


def test_serial_load_sweep_calibrates_once_per_point(calibrations):
    load_sweep(SWEEP, jobs=1)
    assert len(calibrations) == len(SWEEP.loads)


def test_cached_sweep_repeat_is_all_hits_without_calibrating(
    calibrations, monkeypatch, tmp_path
):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    first = load_sweep(SWEEP, jobs=1)
    parallel_module._resolve_recipe.cache_clear()
    calibrations.clear()
    events = []
    second = load_sweep(SWEEP, jobs=1, progress=events.append)
    assert calibrations == []
    assert [e.kind for e in events] == ["hit"] * len(SWEEP.loads) * len(SWEEP.algorithms)
    assert second.sweep_values == first.sweep_values
    assert second.series == first.series


def test_key_names_the_recipe_without_resolving(calibrations):
    recipe = CalibratedWorkload(ELASTIC_HETERO, 0.9, 11)
    key = spec_key(RunSpec(recipe, "EASY-DE"))
    assert calibrations == []
    assert key == spec_key(RunSpec(CalibratedWorkload(ELASTIC_HETERO, 0.9, 11), "EASY-DE"))
    assert key != spec_key(RunSpec(CalibratedWorkload(ELASTIC_HETERO, 0.9, 12), "EASY-DE"))
    assert key != spec_key(RunSpec(CalibratedWorkload(ELASTIC_HETERO, 0.8, 11), "EASY-DE"))
    assert key != spec_key(RunSpec(recipe, "LOS-DE"))
    # A recipe and the workload it resolves to are different addresses:
    # the concrete form is keyed by content.
    assert key != spec_key(RunSpec(resolve_workload(recipe), "EASY-DE"))


def test_recipe_and_concrete_specs_run_identically(tmp_path):
    recipe = CalibratedWorkload(SWEEP.generator, 0.9, 4)
    concrete = calibrate_beta_arr(SWEEP.generator, 0.9, seed=4).workload
    expected = execute_spec(RunSpec(concrete, "Delayed-LOS"))
    assert execute_spec(RunSpec(recipe, "Delayed-LOS")) == expected
    checkpointed = RunSpec(
        recipe, "Delayed-LOS", checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=50
    )
    assert execute_spec(checkpointed) == expected


def test_cache_resumes_recipe_sweep(tmp_path):
    cache = RunCache(root=tmp_path / "cache")
    specs = [
        RunSpec(CalibratedWorkload(SWEEP.generator, load, 5), name)
        for load in (0.7, 0.9)
        for name in ("EASY", "LOS")
    ]
    first = execute_runs(specs, jobs=1, cache=cache)
    again = execute_runs(specs, jobs=1, cache=cache)
    assert again == first
    assert cache.stats.hits == len(specs)


_DIGESTS = """
import json, pickle, sys
from repro.experiments.cache import workload_digest
from repro.experiments.parallel import resolve_workload
specs = pickle.loads(sys.stdin.buffer.read())
print(json.dumps([workload_digest(resolve_workload(s.workload)) for s in specs]))
"""


def test_every_algorithm_sees_one_workload_in_any_process(calibrations):
    config = replace(ELASTIC_HETERO, n_jobs=80)
    recipes = [
        CalibratedWorkload(config, load, 21 + index)
        for index, load in enumerate((0.7, 0.9))
    ]
    specs = [RunSpec(r, name) for r in recipes for name in ELASTIC_HETERO_ALGORITHMS]
    here = [workload_digest(resolve_workload(spec.workload)) for spec in specs]
    child = subprocess.run(
        [sys.executable, "-c", _DIGESTS],
        input=pickle.dumps(specs),
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    there = json.loads(child.stdout)
    assert there == here
    per_algorithm = len(ELASTIC_HETERO_ALGORITHMS)
    for point in range(len(recipes)):
        block = here[point * per_algorithm:(point + 1) * per_algorithm]
        assert len(set(block)) == 1
    assert here[0] != here[per_algorithm]
