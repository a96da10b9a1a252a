"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root lists the same metrics for
the automated runs; ``benchmarks/e2e/test_e2e.py`` keeps the two in
step.  ``failed_frac`` is reported here but not in ``BENCHMARK.json``,
whose metrics must never read 0; the runs carry it as their
``attempted``/``failed`` counts instead.

Timings are in seconds of the quiet reference host: each sample's set-up
and timed rep lose the CPU time the host stole during them and are
scaled by the host-speed readings taken meanwhile
(:mod:`benchmarks.e2e.probe`).  Samples keep the raw times.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("replay_steady", "backlog", "hetero_elastic", "paper_sweep")

#: name -> (unit, better, bound).  The bound is the share of the
#: baseline median by which the metric may get worse before a change
#: counts as a regression; ``failed_frac`` may not rise at all.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "jobs_per_s": ("jobs/s", "higher", 0.15),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.10),
    "failed_frac": ("ratio", "lower", 0.0),
}

#: name -> (unit, better).  The prefix is the layer: the ``repro``
#: module whose entry points the span wraps (``bench`` is the
#: benchmark's own wrappers).  A ``_share`` is the layer's time over the
#: traced rep's timed seconds, so a layer a workload never enters reads
#: 0 as a ratio rather than as a time.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "sim.self_share": ("ratio", "lower"),
    "sim.us_per_event": ("us", "lower"),
    "workload.pull_share": ("ratio", "lower"),
    "workload.gen_s": ("s", "lower"),
    "metrics.observe_share": ("ratio", "lower"),
    "durable.checkpoints": ("count", "lower"),
    "durable.checkpoint_share": ("ratio", "lower"),
    "durable.checkpoint_mib": ("MiB", "lower"),
    "core.cycles": ("count", "lower"),
    "core.cycle_self_share": ("ratio", "lower"),
    "core.cycle_us_p50": ("us", "lower"),
    "core.cycle_us_p99": ("us", "lower"),
    "core.cycle_idle_frac": ("ratio", "lower"),
    "core.cycles_elided": ("count", "higher"),
    "core.backfill_attempts": ("count", "lower"),
    "core.backfill_start_ratio": ("ratio", "higher"),
    "core.dp_calls": ("count", "lower"),
    "core.dp_share": ("ratio", "lower"),
    "core.dp_cells": ("count", "lower"),
    "core.dp_memo_hit_ratio": ("ratio", "higher"),
    "core.ecc_calls": ("count", "lower"),
    "core.ecc_share": ("ratio", "lower"),
    "core.profile_builds": ("count", "lower"),
    "core.profile_share": ("ratio", "lower"),
    "cluster.ops": ("count", "lower"),
    "cluster.share": ("ratio", "lower"),
    "queues.ops": ("count", "lower"),
    "queues.share": ("ratio", "lower"),
    "queues.len_mean": ("jobs", "lower"),
    "queues.len_max": ("jobs", "lower"),
    "obs.trace_records": ("count", "lower"),
    "obs.trace_write_share": ("ratio", "lower"),
    "obs.trace_mib": ("MiB", "lower"),
    "obs.trace_read_share": ("ratio", "lower"),
    "parallel.pool_startup_share": ("ratio", "lower"),
    "parallel.speedup": ("x", "higher"),
    "parallel.efficiency": ("ratio", "higher"),
    "parallel.spec_kib": ("KiB", "lower"),
    "core.memo_speedup": ("x", "higher"),
    "core.memo_rss_mib": ("MiB", "lower"),
    "obs.spans_overhead": ("x", "lower"),
    "bench.trace_overhead": ("x", "lower"),
}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def reference_s(sample: Dict, phase: str) -> float:
    """The sample's ``setup`` or ``timed`` seconds on the quiet reference host.

    The share of CPU time the host took away (steal) comes off first;
    the rest is divided by how much slower than the reference the host
    ran meanwhile.
    """
    return (sample[f"{phase}_s"] * (1.0 - sample[f"{phase}_steal"])
            / sample[f"{phase}_slowness"])


def sample_value(sample: Dict, metric: str, scaled: bool = True) -> Optional[float]:
    """One sample's value of an end-to-end metric; None if the sample failed.

    Timings are scaled to the quiet reference host unless ``scaled`` is
    false.
    """
    if metric == "failed_frac":
        return sample["failed"] / sample["runs"]
    if "error" in sample:
        return None
    if metric == "jobs_per_s":
        return sample["jobs"] / (reference_s(sample, "timed") if scaled else sample["timed_s"])
    if metric == "setup_s":
        return reference_s(sample, "setup") if scaled else sample["setup_s"]
    return sample["rss_mib"]


def end_to_end(samples: List[Dict], scaled: bool = True) -> Dict[str, float]:
    """One workload's end-to-end metrics: medians over its samples.

    ``failed_frac`` is failed runs over attempted runs of all samples.
    """
    values: Dict[str, float] = {}
    for metric in END_TO_END:
        if metric == "failed_frac":
            attempted = sum(sample["runs"] for sample in samples)
            values[metric] = sum(sample["failed"] for sample in samples) / attempted
        else:
            per_sample = [sample_value(sample, metric, scaled) for sample in samples]
            per_sample = [value for value in per_sample if value is not None]
            values[metric] = statistics.median(per_sample) if per_sample else 0.0
    return values
