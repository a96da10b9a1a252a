"""Streaming scaling curve and scale tier, plus the e2e input helpers.

The simulator's speed is measured by ``benchmarks/e2e`` (``python -m
benchmarks.e2e``; its README is the protocol).  This module keeps the
two measurements that harness does not make yet, and the input helpers
it imports (``TARGET_LOAD``, ``_scale_config``, ``_write_replay_swf``):

- the scaling curve (``--scaling-curve``): events/sec of the streaming
  engine at three sizes in one process, so the scaling *exponent* is
  visible, not just one point.  A flat curve (ratio ~1x between the
  smallest and the largest point) means per-event cost does not grow
  with total job count (docs/scaling.md);
- the scale tier (``--scale-tier``): 100k- and 1M-job synthetic
  streams plus an archive-shaped SWF replay, each in a subprocess with
  ``online=True, retain_records=False`` so peak RSS measures the
  O(1)-memory path alone.  The headline number is the RSS ratio of the
  10x-larger tier over the smaller: ~1x means memory is bounded by the
  live job set, not the workload length.

Usage::

    python -m benchmarks.bench_perf_core --scaling-curve          # 10k/30k/100k
    python -m benchmarks.bench_perf_core --scale-tier --quick     # 10k + 100k
    python -m benchmarks.bench_perf_core --scale-child '{...}'    # one scenario

Each prints one JSON document to stdout.  Wall times are
machine-dependent; compare runs made on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.calibrate import calibrate_beta_arr
from repro.workload.generator import GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig

#: Canonical scenario load (the paper's high-contention regime).
TARGET_LOAD = 0.9

#: Policy for the streaming scale tier: EASY keeps per-event cost low
#: so the tier measures the engine + streaming machinery, not DP depth.
SCALE_ALGORITHM = "EASY"
SCALE_SEED = 17
#: Jobs used to calibrate β_arr for the scale tier.  The Lublin
#: arrival model is stationary in the load knob, so one cheap
#: calibration transfers to the 100k/1M streams.
SCALE_CALIBRATION_JOBS = 2000


# ----------------------------------------------------------------------
# Streaming scale tier (--scale-tier)
# ----------------------------------------------------------------------
def scale_tier_sizes(quick: bool) -> Sequence[int]:
    """The two synthetic stream sizes, 10x apart so RSS flatness shows."""
    if quick:
        return (10_000, 100_000)
    return (100_000, 1_000_000)


def _scale_config(n_jobs: int, beta_arr: float) -> GeneratorConfig:
    return GeneratorConfig(
        n_jobs=n_jobs, size=TwoStageSizeConfig(p_small=0.5)
    ).with_beta_arr(beta_arr)


def _write_replay_swf(path: Path, n_jobs: int, beta_arr: float, seed: int) -> None:
    """Stream-write a synthetic workload as an archive-shaped SWF log.

    One job at a time, generator to file — the log is produced without
    ever materializing the workload, same as it will be consumed.
    """
    from repro.workload.streaming import SyntheticWorkloadStream
    from repro.workload.swf import SWFRecord

    stream = SyntheticWorkloadStream(_scale_config(n_jobs, beta_arr), seed=seed).stream()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"; MaxProcs: {stream.machine_size}\n")
        for job in stream:
            fh.write(SWFRecord.from_job(job).to_line() + "\n")


def _calibrate_scale_beta() -> "tuple[float, float]":
    """``(beta_arr, achieved_load)`` shared by the scale tier and curve."""
    calibration = calibrate_beta_arr(
        GeneratorConfig(
            n_jobs=SCALE_CALIBRATION_JOBS, size=TwoStageSizeConfig(p_small=0.5)
        ),
        TARGET_LOAD,
        seed=SCALE_SEED,
    )
    return calibration.beta_arr, calibration.achieved_load


# ----------------------------------------------------------------------
# Scaling curve (--scaling-curve)
# ----------------------------------------------------------------------
def scaling_curve_sizes(quick: bool) -> Sequence[int]:
    """Three sizes a decade apart (ish), so the exponent is estimable."""
    if quick:
        return (2_000, 6_000, 20_000)
    return (10_000, 30_000, 100_000)


def run_scaling_curve(quick: bool = False) -> Dict:
    """Measure streaming events/sec at three workload sizes.

    Unlike the subprocess-isolated scale tier (which measures RSS),
    the curve runs in-process — it only needs wall time — and exists
    to make the scaling *shape* a tracked quantity:

    - ``throughput_ratio_smallest_over_largest``: events/sec at the
      smallest size over the largest.  ~1.0 means per-event cost is
      flat in total job count; the pre-fix engine scored ~8x here.
    - ``wall_time_exponent``: the slope of log(wall) vs log(events)
      between the endpoints — 1.0 is linear, >1 superlinear.

    The CI gate on the same shape is the ``perf``-marked flatness
    test in ``tests/test_performance.py``: per-event cost at 50k jobs
    must stay under 2x the cost at 10k.
    """
    from repro.core.registry import make_scheduler
    from repro.experiments.runner import SimulationRunner
    from repro.workload.streaming import SyntheticWorkloadStream

    beta_arr, achieved_load = _calibrate_scale_beta()
    points: List[Dict] = []
    for n_jobs in scaling_curve_sizes(quick):
        stream = SyntheticWorkloadStream(
            _scale_config(n_jobs, beta_arr), seed=SCALE_SEED
        ).stream()
        runner = SimulationRunner(
            stream,
            make_scheduler(SCALE_ALGORITHM),
            online=True,
            retain_records=False,
        )
        started = time.perf_counter()
        metrics = runner.run()
        elapsed = time.perf_counter() - started
        points.append({
            "n_jobs": n_jobs,
            "events": metrics.events_processed,
            "wall_time_s": round(elapsed, 6),
            "events_per_sec": (
                round(metrics.events_processed / elapsed, 1) if elapsed > 0 else 0.0
            ),
        })

    small, large = points[0], points[-1]
    ratio = (
        round(small["events_per_sec"] / large["events_per_sec"], 3)
        if large["events_per_sec"] > 0
        else 0.0
    )
    exponent = 0.0
    if (
        small["wall_time_s"] > 0
        and large["wall_time_s"] > 0
        and large["events"] > small["events"] > 0
    ):
        import math

        exponent = round(
            math.log(large["wall_time_s"] / small["wall_time_s"])
            / math.log(large["events"] / small["events"]),
            3,
        )
    return {
        "algorithm": SCALE_ALGORITHM,
        "beta_arr": round(beta_arr, 6),
        "calibrated_load": round(achieved_load, 4),
        "points": points,
        "throughput_ratio_smallest_over_largest": ratio,
        "wall_time_exponent": exponent,
    }


def _scale_child(payload: str) -> int:
    """Subprocess entry: run one streaming scenario, print one JSON line.

    Runs in a fresh interpreter so its peak RSS reflects this scenario
    alone (the parent's own allocations never inflate it).  The payload
    is a JSON object: ``kind`` ("synthetic" | "swf") plus its
    parameters, ``algorithm``, and an optional ``rlimit_mb`` hard
    address-space cap (used by the CI memory-budget smoke).
    """
    import resource

    params = json.loads(payload)
    rlimit_mb = params.get("rlimit_mb")
    if rlimit_mb:
        limit = int(rlimit_mb) * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from repro.core.registry import make_scheduler
    from repro.experiments.runner import SimulationRunner
    from repro.workload.streaming import SyntheticWorkloadStream, stream_swf_workload

    if params["kind"] == "synthetic":
        config = _scale_config(int(params["n_jobs"]), float(params["beta_arr"]))
        stream = SyntheticWorkloadStream(config, seed=int(params["seed"])).stream()
    elif params["kind"] == "swf":
        stream = stream_swf_workload(
            params["path"], machine_size=params.get("machine_size")
        )
    else:  # pragma: no cover - protocol misuse
        raise ValueError(f"unknown scale scenario kind {params['kind']!r}")

    runner = SimulationRunner(
        stream,
        make_scheduler(params["algorithm"]),
        online=True,
        retain_records=False,
    )
    started = time.perf_counter()
    metrics = runner.run()
    elapsed = time.perf_counter() - started
    # VmHWM (KiB), not ru_maxrss: the latter survives exec, so it would
    # report the launching parent's peak whenever that is larger.
    with open("/proc/self/status", encoding="ascii") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    online = metrics.online
    print(json.dumps({
        "events": metrics.events_processed,
        "wall_time_s": round(elapsed, 6),
        "events_per_sec": (
            round(metrics.events_processed / elapsed, 1) if elapsed > 0 else 0.0
        ),
        "n_jobs_done": online.n_jobs if online is not None else 0,
        "mean_wait": round(online.mean_wait, 6) if online is not None else 0.0,
        "utilization": round(metrics.utilization, 6),
        "offered_load": round(metrics.offered_load, 4),
        "peak_rss_kb": peak_kb,
    }))
    return 0


def _run_scale_child(params: Dict) -> Dict:
    """Launch :func:`_scale_child` in a subprocess and parse its line."""
    import subprocess

    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    pythonpath = [str(repo_root), str(repo_root / "src")]
    if env.get("PYTHONPATH"):
        pythonpath.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.bench_perf_core",
         "--scale-child", json.dumps(params)],
        capture_output=True, text=True, env=env, cwd=str(repo_root),
    )
    if proc.returncode != 0:
        detail = proc.stderr.strip() or proc.stdout.strip()
        raise RuntimeError(f"scale child failed ({params.get('kind')}): {detail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_scale_tier(quick: bool = False) -> Dict:
    """Run the streaming scale tier and return its document section.

    Calibrates β_arr once at a small scale, then streams each tier in
    its own subprocess.  The archive replay stream-writes the smaller
    tier to a temporary SWF file and streams it back through the lazy
    reader, exercising the file-ingestion path at scale.
    """
    beta_arr, achieved_load = _calibrate_scale_beta()

    scenarios: List[Dict] = []
    for n_jobs in scale_tier_sizes(quick):
        params: Dict = {
            "kind": "synthetic", "n_jobs": n_jobs, "beta_arr": beta_arr,
            "seed": SCALE_SEED, "algorithm": SCALE_ALGORITHM,
        }
        result = _run_scale_child(params)
        scenarios.append({
            "scenario": "synthetic-stream", "algorithm": SCALE_ALGORITHM,
            "n_jobs": n_jobs, **result,
        })

    replay_jobs = scale_tier_sizes(quick)[0]
    with tempfile.TemporaryDirectory() as tmp:
        swf_path = Path(tmp) / "replay.swf"
        _write_replay_swf(swf_path, replay_jobs, beta_arr, seed=SCALE_SEED)
        params = {
            "kind": "swf", "path": str(swf_path), "machine_size": 320,
            "algorithm": SCALE_ALGORITHM,
        }
        result = _run_scale_child(params)
    scenarios.append({
        "scenario": "swf-replay", "algorithm": SCALE_ALGORITHM,
        "n_jobs": replay_jobs, **result,
    })

    small, large = scenarios[0], scenarios[1]
    rss_ratio = (
        round(large["peak_rss_kb"] / small["peak_rss_kb"], 3)
        if small["peak_rss_kb"] > 0
        else 0.0
    )
    return {
        "algorithm": SCALE_ALGORITHM,
        "tiers": list(scale_tier_sizes(quick)),
        "beta_arr": round(beta_arr, 6),
        "calibrated_load": round(achieved_load, 4),
        "scenarios": scenarios,
        # The acceptance metric: peak RSS of the 10x-larger synthetic
        # tier over the smaller.  ~1.0 = streaming memory is flat.
        "peak_rss_ratio_large_over_small": rss_ratio,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_perf_core",
        description="Measure the streaming scaling curve and scale tier.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sizes: 2k/6k/20k curve, 10k + 100k tier",
    )
    parser.add_argument(
        "--scaling-curve", action="store_true",
        help="events/sec at 10k/30k/100k jobs in one process",
    )
    parser.add_argument(
        "--scale-tier", action="store_true",
        help="100k + 1M-job streams and a SWF replay, each in a "
        "subprocess, with peak RSS",
    )
    parser.add_argument(
        "--scale-child", type=str, default=None, help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if args.scale_child is not None:
        return _scale_child(args.scale_child)
    if not (args.scaling_curve or args.scale_tier):
        parser.error("pass --scaling-curve, --scale-tier or both")
    document: Dict = {"quick": args.quick}
    if args.scaling_curve:
        document["scaling_curve"] = run_scaling_curve(args.quick)
    if args.scale_tier:
        document["scale"] = run_scale_tier(args.quick)
    print(json.dumps(document, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
