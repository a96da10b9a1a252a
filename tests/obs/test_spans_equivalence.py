"""Spans are observe-only across the whole registry.

Every registry policy runs three times on the same workload: spans off,
aggregate spans, and timeline spans with a Chrome export.  The trace
files must be byte-identical, the metrics equal, and the export a
loadable, non-empty Chrome trace.  The inputs are those of
``repro sim --jobs 80 --seed 11 --p-extend 0.3 --p-reduce 0.1``, with
``--malleable 0.5`` for the batch and Malleable-* policies and
``--p-dedicated 0.2`` for the ones that handle dedicated jobs.
"""

from __future__ import annotations

import json

import pytest

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.calibrate import calibrate_beta_arr
from repro.experiments.runner import simulate
from repro.workload.generator import GeneratorConfig
from repro.workload.transform import make_malleable
from repro.workload.twostage import TwoStageSizeConfig

SEED = 11


def _workload(p_dedicated: float):
    config = GeneratorConfig(
        n_jobs=80,
        machine_size=320,
        size=TwoStageSizeConfig(p_small=0.5),
        p_dedicated=p_dedicated,
        p_extend=0.3,
        p_reduce=0.1,
    )
    return calibrate_beta_arr(config, 0.9, seed=SEED).workload


@pytest.fixture(scope="module")
def workloads():
    return {
        "ranged": make_malleable(_workload(0.0), 0.5, seed=SEED),
        "dedicated": _workload(0.2),
    }


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_spans_modes_are_byte_identical(workloads, tmp_path, algorithm):
    handles_dedicated = make_scheduler(algorithm).handles_dedicated
    workload = workloads["dedicated" if handles_dedicated else "ranged"]
    paths = {mode: tmp_path / f"{mode}.jsonl" for mode in ("off", "aggregate", "timeline")}
    chrome = tmp_path / "spans.json"

    off = simulate(workload, make_scheduler(algorithm), trace_out=paths["off"])
    aggregate = simulate(
        workload, make_scheduler(algorithm), trace_out=paths["aggregate"], spans=True
    )
    timeline = simulate(
        workload, make_scheduler(algorithm), trace_out=paths["timeline"], spans_out=chrome
    )

    reference = paths["off"].read_bytes()
    assert reference
    assert paths["aggregate"].read_bytes() == reference
    assert paths["timeline"].read_bytes() == reference
    assert aggregate == off  # telemetry is compare=False
    assert timeline == off
    assert aggregate.telemetry.counter("span_event") == off.events_processed
    assert timeline.telemetry.counter("span_event") == off.events_processed

    doc = json.loads(chrome.read_text())
    assert doc["displayTimeUnit"] == "ms"
    names = {event["name"] for event in doc["traceEvents"]}
    assert {"event", "schedule_cycle"} <= names
