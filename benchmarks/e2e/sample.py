"""One sample, run in a fresh child process: set up, time one rep, check.

The parent passes the moment it spawned the child, so ``setup_s``
covers interpreter start, imports, input generation and pool warm-up.
The host-speed sampler (:mod:`benchmarks.e2e.probe`) starts first and
runs throughout; the program's modules are imported after it, so its
set-up readings cover the imports too.  The child prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import resource
from pathlib import Path
from time import perf_counter
from typing import Dict

from benchmarks.e2e.probe import Sampler, cpu_ticks, slowness, steal_share


def _peak_rss_mib(pool: bool) -> float:
    """Peak RSS of this process, or of its largest pool worker if larger.

    ``VmHWM`` rather than ``ru_maxrss`` for this process: the latter
    survives ``exec`` and would report the parent's RSS at spawn time.
    Pool workers are forked, so their ``ru_maxrss`` (counted once they
    are reaped) is their own.  Both are in KiB.
    """
    from repro.experiments import parallel

    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    if pool:
        parallel.shutdown_warm_pool(wait=True)
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def _telemetry(rep) -> Dict[str, int]:
    """The program's own telemetry counters, summed over the rep's runs."""
    counters: Dict[str, int] = {}
    for metrics in rep.metrics:
        for name, value in metrics.telemetry.counters.items():
            counters[name] = counters.get(name, 0) + value
    return counters


def _layers(tracer, rep, counters: Dict[str, int], timed_s: float) -> Dict[str, float]:
    """The per-layer metrics the traced sample measures itself."""
    events = sum(m.events_processed for m in rep.metrics)
    queues = [m.queue for m in rep.metrics if m.queue is not None]
    cycle = tracer.layer("core.cycle")
    trace_write = tracer.layer("obs.trace_write")
    probes = counters.get("dp_cache_hits", 0) + counters.get("dp_cache_misses", 0)
    attempts = counters.get("backfill_attempts", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def share(span: str, key: str = "total_s") -> float:
        return tracer.layer(span)[key] / timed_s

    return {
        "sim.events": events,
        "sim.self_share": share("sim.run", "self_s"),
        "sim.us_per_event": 1e6 * ratio(tracer.layer("sim.run")["self_s"], events),
        "workload.pull_share": share("workload.pull"),
        "workload.gen_s": tracer.layer("workload.gen")["total_s"],
        "metrics.observe_share": share("metrics.observe"),
        "durable.checkpoints": tracer.layer("durable.checkpoint")["calls"],
        "durable.checkpoint_share": share("durable.checkpoint"),
        "durable.checkpoint_mib": tracer.counts.get("durable.checkpoint.bytes", 0) / 2**20,
        "core.cycles": cycle["calls"],
        "core.cycle_self_share": share("core.cycle", "self_s"),
        "core.cycle_us_p50": 1e6 * tracer.percentile("core.cycle", 0.50),
        "core.cycle_us_p99": 1e6 * tracer.percentile("core.cycle", 0.99),
        "core.cycle_idle_frac": ratio(tracer.counts.get("core.cycle.idle", 0), cycle["calls"]),
        "core.cycles_elided": counters.get("cycles_elided", 0),
        "core.backfill_attempts": attempts,
        "core.backfill_start_ratio": ratio(counters.get("backfill_starts", 0), attempts),
        "core.dp_calls": tracer.layer("core.dp")["calls"],
        "core.dp_share": share("core.dp"),
        "core.dp_cells": counters.get("dp_cells", 0),
        "core.dp_memo_hit_ratio": ratio(counters.get("dp_cache_hits", 0), probes),
        "core.ecc_calls": tracer.layer("core.ecc")["calls"],
        "core.ecc_share": share("core.ecc"),
        "core.profile_builds": counters.get("profile_rebuilds", 0),
        "core.profile_share": share("core.profile"),
        "cluster.ops": tracer.layer("cluster.op")["calls"],
        "cluster.share": share("cluster.op"),
        "queues.ops": tracer.layer("queues.op")["calls"],
        "queues.share": share("queues.op"),
        "queues.len_mean": ratio(sum(q.mean_queue_length for q in queues), len(queues)),
        "queues.len_max": max((q.max_queue_length for q in queues), default=0),
        "obs.trace_records": trace_write["calls"] - tracer.counts.get("obs.trace_files", 0),
        "obs.trace_write_share": share("obs.trace_write"),
        "obs.trace_mib": rep.trace_bytes / 2**20,
        "obs.trace_read_share": share("obs.trace_read"),
    }


def run_sample(request: Dict) -> Dict:
    """Set up, time and check one rep as ``request`` describes."""
    work_dir = Path(request["work_dir"])
    sampler = Sampler(work_dir / "probe")
    sampler.start()

    from benchmarks.e2e import workloads
    from benchmarks.e2e.tracer import Tracer, install

    name = request["workload"]
    variant = request["variant"]
    tracer = None
    if variant == "traced":
        tracer = Tracer()
        install(tracer)
    seed = workloads.input_seed(request["seed"], name, request["rep"])
    prepared = workloads.prepare(name, seed, request["quick"], work_dir, variant)
    ready, ready_ticks = perf_counter(), cpu_ticks()

    rep = workloads.run_rep(prepared, spans=variant == "spans")
    ended, ended_ticks = perf_counter(), cpu_ticks()
    sampler.stop()

    rows = json.dumps(workloads.digest_rows(rep), sort_keys=True)
    setup_readings = sampler.readings(request["spawned"], ready)
    timed_readings = sampler.readings(ready, ended)
    result = {
        "workload": name,
        "rep": request["rep"],
        "variant": variant,
        "setup_s": ready - request["spawned"] - sampler.build_s,
        "setup_steal": steal_share(request["spawn_ticks"], ready_ticks),
        "setup_slowness": slowness(setup_readings),
        "setup_readings": len(setup_readings),
        "timed_s": ended - ready,
        "timed_steal": steal_share(ready_ticks, ended_ticks),
        "timed_slowness": slowness(timed_readings),
        "timed_readings": len(timed_readings),
        "jobs": rep.jobs,
        "runs": len(rep.metrics),
        "failures": workloads.check(prepared, rep),
        "digest": hashlib.sha256(rows.encode()).hexdigest()[:16],
        "rss_mib": _peak_rss_mib(pool=prepared.workers > 1) - sampler.rss_mib,
        "workers": prepared.workers,
        "pool_startup_s": prepared.pool_startup_s,
        "spec_kib": prepared.spec_kib,
    }
    if tracer is not None:
        result["telemetry"] = _telemetry(rep)
        result["layers"] = _layers(tracer, rep, result["telemetry"], result["timed_s"])
        result["spans"] = tracer.tree()
        tracer.write_chrome_trace(request["chrome"])
    return result
