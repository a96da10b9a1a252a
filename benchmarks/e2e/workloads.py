"""The benchmark's four workloads: input generation and one timed rep.

Every input is a pure function of ``(seed, workload, rep)``.  Each rep
of a run simulates its own input (:func:`input_seed`), so a run's
throughput averages over several independent draws of the workload
family instead of one; same-input repeats are what ``--traced``
checks.

Three inputs are built at a fixed ``β_arr`` and then have their arrival
times scaled so the input's offered load is exactly the target.
Calibrating ``β_arr`` on a 2,000-job prefix, as the sweeps do, lands a
50k-job input anywhere between load 0.74 and 1.07 depending on the
seed, and throughput with it by ±15%.  The scale factor is rounded to
a multiple of 1/1024: submit times are whole seconds, so scaled times
stay exact and an ECC issued at its job's submission still is.
"""

from __future__ import annotations

import os
import pickle
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchmarks import bench_perf_core
from benchmarks.e2e.catalog import WORKLOADS
from repro.core.registry import make_scheduler
from repro.durable.checkpoint import DEFAULT_EVERY_EVENTS, CheckpointConfig
from repro.experiments import figures, parallel
from repro.experiments.cache import RunCache
from repro.experiments.calibrate import calibrate_beta_arr
from repro.experiments.runner import SimulationRunner
from repro.metrics.records import RunMetrics
from repro.obs import analytics
from repro.obs.trace_io import TraceReadError
from repro.workload.generator import CWFWorkloadGenerator, Workload
from repro.workload.streaming import stream_swf_workload

#: Offered load of ``backlog``: β_arr = 0.47 gives ≈1.47, so the queue
#: grows for the whole run (docs/scaling.md: the cliffs live here).
BACKLOG_LOAD = 1.47
BACKLOG_BETA = 0.47
BACKLOG_ALGORITHMS = ("EASY", "Delayed-LOS")
REPLAY_ALGORITHM = "EASY"
HETERO_ALGORITHM = "Hybrid-LOS-E"
#: Generation β_arr of the load-0.9 inputs (the paper's mid-range value)
#: before arrival scaling.
STEADY_BETA = 0.5101

#: Input sizes, and ``rep_s``: the nominal timed seconds of one full-size
#: rep on a 2-core x86 host, which sets how many samples fit a run.
#: Quick sizes are ~50x smaller, for the self-test.
SIZES: Dict[bool, Dict[str, Dict[str, int]]] = {
    False: {
        "replay_steady": {"n_jobs": 25_000, "checkpoint_every": DEFAULT_EVERY_EVENTS,
                          "rep_s": 2},
        "backlog": {"n_jobs": 12_000, "rep_s": 2},
        "hetero_elastic": {"n_jobs": 22_000, "rep_s": 2},
        "paper_sweep": {"n_jobs": 500, "seeds": 1, "rep_s": 3},
    },
    True: {
        "replay_steady": {"n_jobs": 500, "checkpoint_every": 1_000, "rep_s": 1},
        "backlog": {"n_jobs": 250, "rep_s": 1},
        "hetero_elastic": {"n_jobs": 500, "rep_s": 1},
        "paper_sweep": {"n_jobs": 60, "seeds": 1, "rep_s": 1},
    },
}


def runs_per_rep(name: str, quick: bool) -> int:
    """Simulation runs one rep of ``name`` attempts."""
    if name == "backlog":
        return len(BACKLOG_ALGORITHMS)
    if name == "paper_sweep":
        # Four families of three algorithms each, at every paper load.
        return 4 * 3 * len(figures.PAPER_LOADS) * SIZES[quick][name]["seeds"]
    return 1


def input_seed(seed: int, workload: str, rep: int) -> int:
    """The generator seed of rep ``rep`` of ``workload`` in a run seeded ``seed``."""
    sequence = np.random.SeedSequence([seed, WORKLOADS.index(workload), rep])
    return int(sequence.generate_state(1)[0])


def sweep_workers() -> int:
    """``paper_sweep`` pool size: the usable cores, at most 4."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


# ----------------------------------------------------------------------
# Load normalization
# ----------------------------------------------------------------------
def arrival_scale(submit, runtime, num, machine_size: int, target: float) -> float:
    """Factor for every submit time that makes the offered load ``target``.

    Offered load is total work over ``machine_size`` times the span from
    the first submission to the last job end (repro.workload.load); the
    span grows monotonically with the factor, so bisection finds it.
    """
    submit = np.asarray(submit, dtype=float)
    end = np.asarray(runtime, dtype=float)
    first = submit.min()
    want = float(np.dot(num, end)) / (machine_size * target)
    low, high = 1e-3, 1e3
    for _ in range(80):
        mid = (low + high) / 2
        if (mid * submit + end).max() - mid * first < want:
            low = mid
        else:
            high = mid
    return round(low * 1024) / 1024


def _normalized(workload: Workload, target: float) -> Workload:
    jobs = workload.jobs
    factor = arrival_scale(
        [job.submit for job in jobs],
        [job.effective_runtime() for job in jobs],
        [job.num for job in jobs],
        workload.machine_size,
        target,
    )
    return workload.scale_arrivals(factor)


def _write_swf(path: Path, n_jobs: int, seed: int) -> None:
    """A load-0.9 SWF log, stream-written without materializing jobs.

    The generator writes the log at ``STEADY_BETA``; a second pass
    rewrites column 2 (submit time) scaled to the target load.  Columns
    4, 5 and 9 are run time, processors and requested time.
    """
    raw = path.with_suffix(".raw")
    bench_perf_core._write_replay_swf(raw, n_jobs, STEADY_BETA, seed)
    submit, runtime, num = [], [], []
    with open(raw, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith(";"):
                fields = line.split()
                submit.append(float(fields[1]))
                runtime.append(min(float(fields[3]), float(fields[8])))
                num.append(int(fields[4]))
    factor = arrival_scale(submit, runtime, num, 320, bench_perf_core.TARGET_LOAD)
    with open(raw, encoding="utf-8") as src, open(path, "w", encoding="utf-8") as dst:
        for line in src:
            if not line.startswith(";"):
                fields = line.split()
                scaled = float(fields[1]) * factor
                fields[1] = str(int(scaled)) if scaled.is_integer() else repr(scaled)
                line = " ".join(fields) + "\n"
            dst.write(line)
    raw.unlink()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    """One workload's generated input, ready for timed reps."""

    name: str
    work_dir: Path
    expected_jobs: int
    workload: Optional[Workload] = None
    swf: Optional[Path] = None
    checkpoint_every: int = DEFAULT_EVERY_EVENTS
    specs: Tuple[parallel.RunSpec, ...] = ()
    workers: int = 1
    pool_startup_s: float = 0.0
    spec_kib: float = 0.0


def _paper_specs(n_jobs: int, seeds: int, seed: int, trace_dir: Path) -> List[parallel.RunSpec]:
    """The four §V load-sweep families (Figures 7, 9 and 11) × loads × seeds."""
    families = (
        figures._batch_config(0.2, n_jobs, figures.PAPER_LOADS, 7),
        figures._batch_config(
            0.2, n_jobs, figures.PAPER_LOADS, 9,
            algorithms=figures.HETERO_ALGORITHMS, p_dedicated=0.5,
        ),
        figures._batch_config(
            0.5, n_jobs, figures.PAPER_LOADS, 11,
            algorithms=figures.ELASTIC_BATCH_ALGORITHMS, p_extend=0.2, p_reduce=0.1,
        ),
        figures._batch_config(
            0.5, n_jobs, figures.PAPER_LOADS, 111,
            algorithms=figures.ELASTIC_HETERO_ALGORITHMS,
            p_dedicated=0.5, p_extend=0.2, p_reduce=0.1,
        ),
    )
    rng = np.random.default_rng(seed)
    specs: List[parallel.RunSpec] = []
    for config in families:
        for load in config.loads:
            for _ in range(seeds):
                point_seed = int(rng.integers(2**31))
                workload = calibrate_beta_arr(config.generator, load, seed=point_seed).workload
                for algorithm in config.algorithms:
                    specs.append(parallel.RunSpec(
                        workload, algorithm,
                        max_skip_count=config.max_skip_count,
                        lookahead=config.lookahead,
                        trace_out=str(trace_dir / f"{len(specs)}.jsonl"),
                    ))
    return specs


def prepare(name: str, seed: int, quick: bool, work_dir: Path, variant: str) -> Prepared:
    """Generate ``name``'s input for generator seed ``seed`` (the set-up)."""
    size = SIZES[quick][name]
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if name == "replay_steady":
        swf = work_dir / "replay.swf"
        _write_swf(swf, size["n_jobs"], seed)
        return Prepared(name, work_dir, size["n_jobs"], swf=swf,
                        checkpoint_every=size["checkpoint_every"])
    if name == "backlog":
        config = bench_perf_core._scale_config(size["n_jobs"], BACKLOG_BETA)
        workload = _normalized(CWFWorkloadGenerator(config).generate(rng), BACKLOG_LOAD)
        return Prepared(name, work_dir, size["n_jobs"] * len(BACKLOG_ALGORITHMS),
                        workload=workload)
    if name == "hetero_elastic":
        config = replace(
            bench_perf_core._scale_config(size["n_jobs"], STEADY_BETA),
            p_dedicated=0.3, p_extend=0.2, p_reduce=0.1,
        )
        workload = _normalized(
            CWFWorkloadGenerator(config).generate(rng), bench_perf_core.TARGET_LOAD
        )
        return Prepared(name, work_dir, size["n_jobs"], workload=workload)
    specs = _paper_specs(size["n_jobs"], size["seeds"], seed, work_dir / "traces")
    workers = 1 if variant in ("serial", "traced") else sweep_workers()
    pool_startup_s = parallel.warm_pool(workers) if workers > 1 else 0.0
    spec_kib = sum(len(pickle.dumps(spec)) for spec in specs) / len(specs) / 1024
    return Prepared(name, work_dir, size["n_jobs"] * len(specs), specs=tuple(specs),
                    workers=workers, pool_startup_s=pool_startup_s, spec_kib=spec_kib)


# ----------------------------------------------------------------------
# One timed rep
# ----------------------------------------------------------------------
@dataclass
class RepResult:
    """What one rep simulated, plus the checks that failed on it."""

    metrics: List[RunMetrics]
    failures: List[str]
    trace_bytes: int = 0

    @property
    def jobs(self) -> int:
        return sum(_completed(m) for m in self.metrics)


def _completed(metrics: RunMetrics) -> int:
    return metrics.online.n_jobs if metrics.online is not None else metrics.n_jobs


def run_rep(prepared: Prepared, spans: bool = False) -> RepResult:
    """Simulate ``prepared`` once.  This is the timed section."""
    name = prepared.name
    if name == "replay_steady":
        runner = SimulationRunner(
            stream_swf_workload(prepared.swf),
            make_scheduler(REPLAY_ALGORITHM),
            online=True, retain_records=False, spans=spans,
        )
        checkpoints = prepared.work_dir / "checkpoints"
        metrics = runner.run(checkpoint=CheckpointConfig(
            dir=checkpoints, every_events=prepared.checkpoint_every
        ))
        shutil.rmtree(checkpoints, ignore_errors=True)
        return RepResult([metrics], [])
    if name in ("backlog", "hetero_elastic"):
        algorithms = BACKLOG_ALGORITHMS if name == "backlog" else (HETERO_ALGORITHM,)
        return RepResult([
            SimulationRunner(prepared.workload, make_scheduler(a), spans=spans).run()
            for a in algorithms
        ], [])
    specs = prepared.specs
    if spans:
        specs = tuple(replace(spec, spans=True) for spec in specs)
    results = parallel.execute_runs(specs, jobs=prepared.workers, cache=RunCache.disabled())
    # The trace oracle: every trace read back must reproduce its run's metrics.
    failures = []
    trace_bytes = 0
    for spec, metrics in zip(specs, results):
        trace_bytes += os.path.getsize(spec.trace_out)
        try:
            analytics.validate_trace_file(spec.trace_out, metrics)
        except (analytics.TraceOracleError, TraceReadError) as exc:
            failures.append(f"trace oracle: {exc}")
    shutil.rmtree(prepared.work_dir / "traces", ignore_errors=True)
    return RepResult(results, failures, trace_bytes)


def _peak_processors(records) -> int:
    """Most processors the records hold at once (releases before starts at a tie)."""
    steps = sorted([(r.start, r.num) for r in records] + [(r.finish, -r.num) for r in records])
    held = peak = 0
    for _, delta in steps:
        held += delta
        peak = max(peak, held)
    return peak


def check(prepared: Prepared, rep: RepResult) -> List[str]:
    """Failures of the per-run checks that hold on any seed.

    Every input job completes, utilization lies in (0, 1], no job starts
    before it is submitted, and, in runs where no job changed size, the
    jobs never hold more processors than the machine has.
    """
    failures = list(rep.failures)
    if rep.jobs != prepared.expected_jobs:
        failures.append(f"completed {rep.jobs} jobs, expected {prepared.expected_jobs}")
    for metrics in rep.metrics:
        if not 0.0 < metrics.utilization <= 1.0 + 1e-9:
            failures.append(f"{metrics.algorithm}: utilization {metrics.utilization}")
        records = metrics.records
        if any(r.start < r.submit or r.finish < r.start for r in records):
            failures.append(f"{metrics.algorithm}: a job ran before its submission")
        if not any(r.eccs_applied for r in records):
            peak = _peak_processors(records)
            if peak > metrics.machine_size:
                failures.append(f"{metrics.algorithm}: {peak} processors held at once")
    return failures


def digest_rows(rep: RepResult) -> List[Dict[str, object]]:
    """Per run: the paper's metrics, events processed and the online summary."""
    return [
        {
            "algorithm": m.algorithm,
            "events": m.events_processed,
            "paper": m.as_row() if m.records else None,
            "online": m.online.as_row() if m.online is not None else None,
            "ecc": dict(sorted(m.ecc_stats.items())),
        }
        for m in rep.metrics
    ]
