"""Smoke test for the tracked perf benchmark (marked ``perf``).

Deselected from the default run (``addopts = -m 'not perf'``); run it
explicitly with ``pytest -m perf``.  Uses the benchmark's quick mode
and a temp output path so ``BENCH_core.json`` at the repo root is
never clobbered by the test suite.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_perf_core import (
    BATCH_ALGORITHMS,
    ELASTIC_ALGORITHM,
    main,
    run_bench,
    scenario_scales,
)

pytestmark = pytest.mark.perf


def test_quick_bench_document(tmp_path):
    output = tmp_path / "bench.json"
    document = run_bench(quick=True, jobs=2, output=output)

    on_disk = json.loads(output.read_text(encoding="utf-8"))
    assert on_disk == document
    assert document["schema"] == 5
    assert document["quick"] is True
    assert document["workers"] == 2

    scales = scenario_scales(quick=True)
    expected = {(a, n) for n in scales for a in (*BATCH_ALGORITHMS, ELASTIC_ALGORITHM)}
    seen = {(e["algorithm"], e["n_jobs"]) for e in document["scenarios"]}
    assert seen == expected
    for entry in document["scenarios"]:
        assert entry["wall_time_s"] > 0
        assert entry["events_per_sec"] > 0
        assert entry["events"] >= entry["n_jobs"]

    pipe = document["pipeline"]
    assert pipe["runs"] == 2 * len(BATCH_ALGORITHMS)
    assert pipe["parallel_equals_serial"] is True
    assert pipe["serial_wall_time_s"] > 0
    assert pipe["parallel_wall_time_s"] > 0

    obs = document["observability"]
    assert obs["untraced_wall_time_s"] > 0
    assert obs["traced_wall_time_s"] > 0
    assert obs["traced_over_untraced"] > 0
    assert obs["trace_bytes"] > 0


def test_cli_quick_exits_clean(tmp_path):
    output = tmp_path / "cli.json"
    assert main(
        ["--quick", "--jobs", "1", "--output", str(output), "--no-history"]
    ) == 0
    assert output.exists()
