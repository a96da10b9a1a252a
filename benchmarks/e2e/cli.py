"""Command line of the end-to-end benchmark (see README.md beside this file).

Every sample runs in a fresh child process (:mod:`benchmarks.e2e.sample`);
this parent only spawns, checks and aggregates, so its own imports and
memory never reach a measurement.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.catalog import (
    END_TO_END, PER_LAYER, WORKLOADS, end_to_end, reference_s,
)
from benchmarks.e2e.probe import QUIET_READING_S, cpu_ticks

ROOT = Path(__file__).resolve().parents[2]
#: Everything a run leaves behind: scratch inputs and Chrome traces.
OUT_DIR = ROOT / ".e2e_out"
GOLDEN = Path(__file__).with_name("golden.json")

MIN_SAMPLES = 3
#: A single-workload invocation must finish within 180 s.
SINGLE_BUDGET_S = 170.0
CHILD_TIMEOUT_S = 600.0


def _check_sources() -> Optional[str]:
    """Why the program cannot be imported from this checkout, if it cannot."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        import benchmarks.bench_perf_core  # noqa: F401
    except ImportError as exc:
        return f"cannot import the program from {src}: {exc}"
    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        return f"repro was imported from {repro.__file__}, not from {src}"
    return None


@dataclass
class Session:
    """What every sample of one invocation shares."""

    seed: int
    quick: bool
    deadline: Optional[float] = None

    def golden(self, name: str) -> List[str]:
        """The pinned digests of ``name``'s reps for this seed and mode."""
        pinned = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        mode = pinned.get("quick" if self.quick else "full", {})
        return mode.get(str(self.seed), {}).get(name, [])

    def sample_count(self, name: str, seconds: float) -> int:
        """Samples of ``name`` whose timed reps fill ``seconds``."""
        from benchmarks.e2e.workloads import SIZES

        if self.quick:
            return 1
        return max(MIN_SAMPLES, math.ceil(seconds / SIZES[False][name]["rep_s"]))

    def spawn(self, name: str, rep: int, variant: str, chrome: str = "") -> Dict:
        """Run one sample in a fresh interpreter and return its result.

        A child that fails, times out or prints no result comes back
        with an ``error``, and every run it would have made counts as
        failed.  The child gets its own process group, so pool workers
        it forked die with it.
        """
        from benchmarks.e2e.workloads import runs_per_rep

        work_dir = OUT_DIR / "work" / f"{name}-{rep}-{variant}"
        tmp_dir = work_dir / "tmp"
        tmp_dir.mkdir(parents=True, exist_ok=True)
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(tmp_dir)
        if variant == "no_memo":
            env["REPRO_NO_MEMO"] = "1"
        timeout = CHILD_TIMEOUT_S
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.perf_counter())
        request = {"workload": name, "seed": self.seed, "rep": rep, "quick": self.quick,
                   "variant": variant, "chrome": chrome, "work_dir": str(work_dir),
                   "spawn_ticks": cpu_ticks(), "spawned": time.perf_counter()}
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e", "--child", json.dumps(request)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err = f"{err}\ntimed out after {timeout:.0f} s"
        finally:
            _kill_group(proc.pid)
            shutil.rmtree(work_dir, ignore_errors=True)
        lines = out.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        error = err.strip().splitlines()[-1] if err.strip() else f"exit code {proc.returncode}"
        return {"workload": name, "rep": rep, "variant": variant,
                "runs": runs_per_rep(name, self.quick), "failures": [error], "error": error}


def _kill_group(pgid: int, wait_s: float = 10.0) -> None:
    """Kill what is left of a sample's process group and wait until it is gone."""
    deadline = time.perf_counter() + wait_s
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.perf_counter() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def judge(sample: Dict, expected: Optional[str]) -> None:
    """Set ``sample["failed"]``: its failed runs.

    A digest that differs from ``expected`` (the pinned golden digest,
    or the same input's untraced digest) fails every run of the rep.
    """
    if "error" not in sample and expected is not None and sample["digest"] != expected:
        sample["failures"].append(f"digest {sample['digest']} != expected {expected}")
    if "error" in sample or any(f.startswith("digest ") for f in sample["failures"]):
        sample["failed"] = sample["runs"]
    else:
        sample["failed"] = min(sample["runs"], len(sample["failures"]))
    for failure in sample["failures"]:
        print(f"FAILED {sample['workload']} rep {sample['rep']} {sample['variant']}: "
              f"{failure}", file=sys.stderr)


def measure(session: Session, names, seconds: float) -> Dict[str, List[Dict]]:
    """The samples of each workload, in interleaved rounds.

    Round ``r`` runs rep ``r`` of every workload before round ``r + 1``
    starts, so drift on the host spreads over all workloads alike.  Under
    a deadline, a round that might not finish in time is not started.
    """
    counts = {name: session.sample_count(name, seconds) for name in names}
    samples: Dict[str, List[Dict]] = {name: [] for name in names}
    longest_round = 0.0
    for rep in range(max(counts.values())):
        started = time.perf_counter()
        if rep and session.deadline is not None and started + 2 * longest_round > session.deadline:
            break
        for name in names:
            if rep < counts[name]:
                sample = session.spawn(name, rep, "plain")
                pinned = session.golden(name)
                judge(sample, pinned[rep] if rep < len(pinned) else None)
                samples[name].append(sample)
        longest_round = max(longest_round, time.perf_counter() - started)
    return samples


def traced(session: Session, name: str, trace_dir: Path) -> Tuple[Dict, Dict]:
    """The per-layer metrics of ``name`` and the samples behind them.

    All samples simulate rep 0's input: untraced, traced, memo layer off
    (``REPRO_NO_MEMO=1``, which also turns off cycle elision, the EASY
    fitting index and incremental profile breakpoints), spans on, and
    for a pooled ``paper_sweep`` one serial rep.  Each must reproduce
    the untraced digest, which must match the golden one when pinned.
    """
    from benchmarks.e2e.workloads import sweep_workers

    variants = ["plain", "traced", "no_memo", "spans"]
    pooled = name == "paper_sweep" and sweep_workers() > 1
    if pooled:
        variants.append("serial")
    trace_dir.mkdir(parents=True, exist_ok=True)
    chrome = str(trace_dir / f"{name}.chrome.json")
    samples = {variant: session.spawn(name, 0, variant, chrome) for variant in variants}
    plain = samples["plain"]
    golden = session.golden(name)
    judge(plain, golden[0] if golden else None)
    for variant in variants[1:]:
        judge(samples[variant], plain.get("digest"))
    if any("error" in sample for sample in samples.values()):
        return {metric: 0.0 for metric in PER_LAYER}, samples

    def ratio(a: Dict, b: Dict) -> float:
        """Timed seconds of ``a`` over ``b``, each at reference host speed."""
        return reference_s(a, "timed") / reference_s(b, "timed")

    # The traced paper_sweep rep runs serially, so the wrappers see every run.
    base = samples["serial"] if pooled else plain
    speedup = ratio(samples["serial"], plain) if pooled else 0.0
    layers = dict(samples["traced"]["layers"])
    layers.update({
        "parallel.pool_startup_share": plain["pool_startup_s"] / plain["setup_s"],
        "parallel.speedup": speedup,
        "parallel.efficiency": speedup / plain["workers"],
        "parallel.spec_kib": plain["spec_kib"],
        "core.memo_speedup": ratio(samples["no_memo"], plain),
        "core.memo_rss_mib": plain["rss_mib"] - samples["no_memo"]["rss_mib"],
        "obs.spans_overhead": ratio(samples["spans"], plain),
        "bench.trace_overhead": ratio(samples["traced"], base),
    })
    return layers, samples


def _counts(samples: List[Dict]) -> Tuple[int, int]:
    return sum(s["runs"] for s in samples), sum(s["failed"] for s in samples)


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def single_workload(args, session: Session) -> int:
    """One workload; the last stdout line is the result object."""
    if args.trace:
        layers, by_variant = traced(session, args.workload, _trace_dir(args))
        samples = list(by_variant.values())
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        samples = measure(session, [args.workload], args.seconds)[args.workload]
        values = end_to_end(samples)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _, _) in END_TO_END.items() if name != "failed_frac"}
    attempted, failed = _counts(samples)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _trace_dir(args) -> Path:
    return Path(args.trace_out) if args.trace_out else OUT_DIR / "traces"


def full(args, session: Session) -> int:
    """Every workload: end-to-end metrics, or with ``--traced`` the layers."""
    from benchmarks.e2e.workloads import sweep_workers

    document: Dict[str, object] = {
        "schema": "repro-e2e/1", "seed": args.seed, "quick": args.quick,
        "traced": bool(args.trace), "quiet_reading_s": QUIET_READING_S,
        "host": {"cpus": len(os.sched_getaffinity(0)), "sweep_workers": sweep_workers(),
                 "machine": platform.machine(), "python": platform.python_version()},
        "workloads": {},
    }
    all_samples: List[Dict] = []
    if args.trace:
        print(f"{'metric':<26} {'workload':<15} {'value':>14} unit")
        for name in WORKLOADS:
            layers, samples = traced(session, name, _trace_dir(args))
            all_samples.extend(samples.values())
            document["workloads"][name] = {
                "layers": {m: {"value": layers[m], "unit": u} for m, (u, _) in PER_LAYER.items()},
                "spans": samples["traced"].get("spans", []),
                "samples": samples,
            }
            for metric, (unit, _) in PER_LAYER.items():
                print(f"{metric:<26} {name:<15} {layers[metric]:>14.6g} {unit}")
        print(f"chrome traces: {_trace_dir(args)}")
    else:
        measured = measure(session, WORKLOADS, args.seconds)
        print(f"{'metric':<14} {'workload':<15} {'value':>12} {'unit':<7} {'n':>2}  "
              "raw (host time)")
        for name, samples in measured.items():
            all_samples.extend(samples)
            values = end_to_end(samples)
            raw = end_to_end(samples, scaled=False)
            document["workloads"][name] = {
                "metrics": {m: {"value": values[m], "unit": unit, "n": len(samples)}
                            for m, (unit, _, _) in END_TO_END.items()},
                "samples": samples,
            }
            for metric, (unit, _, _) in END_TO_END.items():
                print(f"{metric:<14} {name:<15} {values[metric]:>12.6g} {unit:<7} "
                      f"{len(samples):>2}  {raw[metric]:.6g}")
        if args.pin:
            _pin(args, measured)
    attempted, failed = _counts(all_samples)
    print(f"runs: {attempted} attempted, {failed} failed")
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if failed == 0 else 1


def _pin(args, measured: Dict[str, List[Dict]]) -> None:
    """Record this run's digests as the golden ones for its seed and mode."""
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    mode = pinned.setdefault("quick" if args.quick else "full", {})
    mode[str(args.seed)] = {
        name: [sample.get("digest") for sample in samples]
        for name, samples in measured.items()
    }
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned digests for seed {args.seed} in {GOLDEN}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the simulator: four workloads, "
        "each sample in a fresh process.  'compare A.json B.json' compares two runs.",
    )
    parser.add_argument("--seed", type=int, default=17, help="input seed (default 17)")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print one JSON result line")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed seconds per workload; sets the sample count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--trace-out", help="directory for the Chrome-trace files")
    parser.add_argument("--out", help="write the full result document (for compare)")
    parser.add_argument("--quick", action="store_true",
                        help="inputs ~50x smaller, one sample (self-test)")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests as the golden ones")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        from benchmarks.e2e.sample import run_sample

        print(json.dumps(run_sample(json.loads(args.child))))
        return 0
    problem = _check_sources()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + SINGLE_BUDGET_S if args.workload else None
    session = Session(args.seed, args.quick, deadline)
    try:
        return single_workload(args, session) if args.workload else full(args, session)
    finally:
        shutil.rmtree(OUT_DIR / "work", ignore_errors=True)
