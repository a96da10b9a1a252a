"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs the ``--quick`` commands in subprocesses, so the layer wrappers
never patch the test process.  Takes ~30 s.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.catalog import END_TO_END, PER_LAYER, WORKLOADS
from benchmarks.e2e.compare import compare
from benchmarks.e2e.probe import QUIET_READING_S, slowness

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick") / "quick.json"
    proc = _run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    base = tmp_path_factory.mktemp("traced")
    proc = _run("--quick", "--traced", "--trace-out", str(base / "chrome"),
                "--out", str(base / "traced.json"))
    assert proc.returncode == 0, proc.stderr
    return base, json.loads((base / "traced.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_catalog():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]} == {
        name: spec for name, spec in END_TO_END.items() if name != "failed_frac"
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER


def test_every_end_to_end_metric_is_emitted(quick):
    assert set(quick["workloads"]) == set(WORKLOADS)
    for name, entry in quick["workloads"].items():
        for metric, (unit, _, _) in END_TO_END.items():
            assert entry["metrics"][metric]["unit"] == unit
            assert entry["metrics"][metric]["n"] >= 1
        assert entry["metrics"]["failed_frac"]["value"] == 0, name
        assert entry["metrics"]["jobs_per_s"]["value"] > 0, name


def test_every_layer_metric_is_emitted(traced):
    base, document = traced
    for name, entry in document["workloads"].items():
        assert {m: v["unit"] for m, v in entry["layers"].items()} == {
            m: unit for m, (unit, _) in PER_LAYER.items()
        }
        assert all(sample["failed"] == 0 for sample in entry["samples"].values()), name
        chrome = json.loads((base / "chrome" / f"{name}.chrome.json").read_text())
        assert chrome["traceEvents"], name
    layers = {name: entry["layers"] for name, entry in document["workloads"].items()}
    assert layers["replay_steady"]["durable.checkpoints"]["value"] > 0
    assert layers["replay_steady"]["workload.pull_share"]["value"] > 0
    assert layers["backlog"]["core.backfill_attempts"]["value"] > 0
    assert layers["hetero_elastic"]["core.ecc_calls"]["value"] > 0
    assert layers["paper_sweep"]["obs.trace_records"]["value"] > 0


def test_self_times_nest(traced):
    _, document = traced
    for name, entry in document["workloads"].items():
        totals, children = {}, {}
        for row in entry["spans"]:
            assert row["self_s"] >= -1e-9, (name, row)
            totals[row["name"]] = totals.get(row["name"], 0.0) + row["total_s"]
            if row["parent"] is not None:
                children[row["parent"]] = children.get(row["parent"], 0.0) + row["total_s"]
        for parent, covered in children.items():
            assert covered <= totals[parent] + 1e-9, (name, parent)


def test_wrappers_see_every_call(traced):
    """Wrapper counts equal the program's own counters: no import site was missed."""
    _, document = traced
    for name, entry in document["workloads"].items():
        traced_sample = entry["samples"]["traced"]
        layers, telemetry = traced_sample["layers"], traced_sample["telemetry"]
        assert layers["core.cycles"] == telemetry.get("schedule_passes", 0), name
        probes = telemetry.get("dp_cache_hits", 0) + telemetry.get("dp_cache_misses", 0)
        assert layers["core.dp_calls"] >= probes, name
        assert layers["durable.checkpoints"] == telemetry.get("checkpoints_written", 0), name
        if name == "hetero_elastic":
            assert layers["core.ecc_calls"] == telemetry["ecc_commands"]
        if name == "backlog":
            # Every job is pushed, removed, allocated and released once.
            jobs = traced_sample["jobs"]
            assert layers["queues.ops"] == layers["cluster.ops"] == 2 * jobs


_SAMPLER_SCRIPT = """
import os, sys, time
from pathlib import Path
from benchmarks.e2e.probe import Sampler

def spin(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass

sampler = Sampler(Path(sys.argv[1]))
sampler.start()
started = time.perf_counter()
pid = os.fork()
if pid == 0:
    spin(0.5)
    os._exit(0)
spin(0.5)
os.waitpid(pid, 0)
sampler.stop()
print(len(list(Path(sys.argv[1]).glob("*.bin"))), len(sampler.readings(started, time.perf_counter())))
"""


def test_sampler_reads_this_process_and_its_forks(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _SAMPLER_SCRIPT, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    files, readings = map(int, proc.stdout.split())
    assert files == 2
    # 1 CPU second at one reading per 0.05 s, less the loop's own share.
    assert readings >= 10


def test_slowness_trims_outliers():
    assert slowness([]) == 1.0
    assert slowness([2 * QUIET_READING_S] * 9 + [1.0]) == pytest.approx(2.0)


def test_compare_against_itself_is_within(quick):
    rows = compare(quick, quick)
    assert len(rows) == len(END_TO_END) * len(WORKLOADS)
    assert {row["verdict"] for row in rows} == {"within"}


@pytest.mark.parametrize("trace, catalog", [("0", END_TO_END), ("1", PER_LAYER)])
def test_single_workload_result_line(trace, catalog):
    proc = _run("--workload", "backlog", "--quick", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert set(result["metrics"]) <= set(catalog)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "backlog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
