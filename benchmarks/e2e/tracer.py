"""Layer spans recorded from the benchmark's own files.

:func:`install` patches the public entry points of each ``repro`` layer
(class methods, or module attributes at the sites that import them) with
wrappers that time every call.  Nothing under ``src/`` knows about it:
the program is measured exactly as shipped, plus the wrappers' own cost,
which the benchmark reports as ``bench.trace_overhead``.

Spans stay in memory.  Each closed span is folded into a per-(name,
parent) aggregate of call count, total and child time; a layer's self
time is its total minus the part its child spans cover.  Durations also
feed a fixed-size reservoir per name for percentiles, and the first
:data:`TIMELINE_LIMIT` spans are kept whole for the Chrome-trace export.
"""

from __future__ import annotations

import json
import os
import random
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept whole for the Chrome-trace timeline.
TIMELINE_LIMIT = 10_000

#: Durations kept per span name for the percentiles.
RESERVOIR_SIZE = 4096


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[name, child_seconds]``.
        self._stack: List[list] = []
        #: (name, parent) -> [calls, total_s, child_s]
        self.aggregates: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: Closed spans kept whole: (name, start, end, parent).
        self.timeline: List[Tuple[str, float, float, Optional[str]]] = []
        #: Extra per-name counts a wrapper derives from a call's result.
        self.counts: Dict[str, float] = {}
        self._reservoirs: Dict[str, List[float]] = {}
        self._seen: Dict[str, int] = {}
        self._rng = random.Random(0)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``.

        A call nested directly in a span of the same name (a policy's
        ``cycle`` delegating to ``super().cycle``) is not a new span.
        """
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            parent_name = None
            if parent is not None:
                parent[1] += duration
                parent_name = parent[0]
            self._close(name, parent_name, start, end, duration, frame[1])

    def _close(self, name, parent, start, end, duration, child) -> None:
        entry = self.aggregates.get((name, parent))
        if entry is None:
            entry = self.aggregates[(name, parent)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += child
        if len(self.timeline) < TIMELINE_LIMIT:
            self.timeline.append((name, start, end, parent))
        seen = self._seen.get(name, 0) + 1
        self._seen[name] = seen
        reservoir = self._reservoirs.setdefault(name, [])
        if seen <= RESERVOIR_SIZE:
            reservoir.append(duration)
        else:
            slot = self._rng.randrange(seen)
            if slot < RESERVOIR_SIZE:
                reservoir[slot] = duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``on_result(tracer, result)`` after each call."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def iterate(self, name: str, iterable) -> Iterator:
        """Yield from ``iterable``, timing each ``next`` as span ``name``."""
        iterator = iter(iterable)
        sentinel = object()
        while True:
            item = self.call(name, next, iterator, sentinel)
            if item is sentinel:
                return
            yield item

    # ------------------------------------------------------------------
    def layer(self, name: str) -> Dict[str, float]:
        """Calls, total and self seconds of span ``name`` over all parents."""
        calls = total = child = 0.0
        for (span, _parent), (n, spent, covered) in self.aggregates.items():
            if span == name:
                calls += n
                total += spent
                child += covered
        return {"calls": calls, "total_s": total, "self_s": total - child}

    def percentile(self, name: str, q: float) -> float:
        """The ``q`` quantile (0..1) of span ``name``'s sampled durations."""
        values = sorted(self._reservoirs.get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]

    def tree(self) -> List[Dict[str, object]]:
        """The (name, parent) aggregates as JSON-ready rows."""
        return [
            {"name": name, "parent": parent, "calls": int(n),
             "total_s": spent, "self_s": spent - covered}
            for (name, parent), (n, spent, covered) in sorted(
                self.aggregates.items(), key=lambda item: (item[0][0], str(item[0][1]))
            )
        ]

    def write_chrome_trace(self, path: str) -> None:
        """The kept timeline as Chrome trace-event JSON (Perfetto-loadable)."""
        origin = min((start for _, start, _, _ in self.timeline), default=0.0)
        pid = os.getpid()
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": pid, "tid": 0,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"parent": parent}}
            for name, start, end, parent in self.timeline
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str, on_result=None) -> None:
    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], on_result))


def _count_idle_cycle(tracer: Tracer, decision) -> None:
    if not (decision.starts or decision.promotions or decision.commands):
        tracer.count("core.cycle.idle")


def _count_checkpoint_bytes(tracer: Tracer, path) -> None:
    tracer.count("durable.checkpoint.bytes", os.path.getsize(path))


def _count_trace_file(tracer: Tracer, _result) -> None:
    tracer.count("obs.trace_files")


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points in this process with ``tracer``.

    Classes are patched rather than instances, so checkpoints (which
    pickle the runner) keep working.  Functions are patched in the
    modules that call them, because ``from x import f`` binds a name
    that patching ``x.f`` would not reach.
    """
    from benchmarks import bench_perf_core
    from repro.cluster.machine import Machine
    from repro.core import delayed_los, hybrid_los
    from repro.core.base import Scheduler
    from repro.core.elastic import ECCProcessor
    from repro.core.profile import CapacityProfile
    from repro.durable import checkpoint
    from repro.experiments import parallel
    from repro.experiments.runner import SimulationRunner
    from repro.metrics.online import OnlineAggregator
    from repro.obs import analytics
    from repro.obs.trace_io import TraceWriter
    from repro.queues.active_list import ActiveList
    from repro.queues.batch_queue import BatchQueue
    from repro.workload.generator import CWFWorkloadGenerator
    from repro.workload.streaming import JobStream

    _patch_method(tracer, SimulationRunner, "run", "sim.run")
    pending = [Scheduler]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "cycle" in cls.__dict__ and not getattr(cls.cycle, "__isabstractmethod__", False):
            _patch_method(tracer, cls, "cycle", "core.cycle", _count_idle_cycle)
    for module, attr in (
        (delayed_los, "basic_dp_select"),
        (delayed_los, "reservation_dp_select"),
        (hybrid_los, "reservation_dp_select"),
    ):
        setattr(module, attr, tracer.wrap("core.dp", getattr(module, attr)))
    _patch_method(tracer, ECCProcessor, "apply", "core.ecc")
    CapacityProfile.from_active = classmethod(
        tracer.wrap("core.profile", CapacityProfile.__dict__["from_active"].__func__)
    )
    _patch_method(tracer, ActiveList, "used_at", "core.profile")
    for attr in ("allocate", "release", "resize"):
        _patch_method(tracer, Machine, attr, "cluster.op")
    for attr in ("push", "push_head", "push_requeue", "remove"):
        _patch_method(tracer, BatchQueue, attr, "queues.op")
    _patch_method(tracer, OnlineAggregator, "observe", "metrics.observe")
    checkpoint.save_checkpoint = tracer.wrap(
        "durable.checkpoint", checkpoint.save_checkpoint, _count_checkpoint_bytes
    )
    _patch_method(tracer, TraceWriter, "write", "obs.trace_write")
    _patch_method(tracer, TraceWriter, "close", "obs.trace_write", _count_trace_file)
    analytics.validate_trace_file = tracer.wrap("obs.trace_read", analytics.validate_trace_file)
    parallel.execute_runs = tracer.wrap("parallel.execute_runs", parallel.execute_runs)
    _patch_method(tracer, CWFWorkloadGenerator, "generate", "workload.gen")
    bench_perf_core._write_replay_swf = tracer.wrap(
        "workload.gen", bench_perf_core._write_replay_swf
    )
    JobStream.__iter__ = lambda stream: tracer.iterate("workload.pull", stream.items)
