"""Trace analytics: replay, metric recomputation, the correctness oracle.

PR 3 gave traces a write side (``repro.trace/1`` JSONL export); this
module is the read side.  :func:`replay` reconstructs the full run
timeline from the records alone — processor-utilization step function,
queue depth, per-job Gantt spans, ECC episodes — and
:func:`recompute_metrics` derives the paper's §V metrics (mean wait,
mean response, slowdown, bounded slowdown, utilization, makespan) from
that reconstruction, **independently of the simulator's own
accounting**.

The two computations share no code: :class:`~repro.metrics.records.RunMetrics`
aggregates live ``Job`` objects through
:class:`~repro.cluster.accounting.UtilizationTracker`, while this
module sees only the exported event stream.  :func:`cross_validate`
compares them within a float tolerance, which turns every traced run
into a correctness oracle — a mismatch means the trace export, the
runner's bookkeeping, or this replay is wrong, and
``tests/obs/test_analytics.py`` enforces agreement for every
registered algorithm.  Set ``REPRO_TRACE_VALIDATE=1`` to run the
oracle automatically after every traced
:func:`~repro.experiments.parallel.execute_spec` run.

Replay semantics mirror the runner exactly:

- a job's *wait* is its **latest** ``start`` minus its ``arrive`` time
  (after a fault requeue, the final attempt's start is what counts),
- *runtime* is ``finish`` minus that latest start; only jobs with a
  ``finish`` record produce a span (permanently failed and
  queue-cancelled jobs are excluded, as in ``RunMetrics.records``),
- the busy level rises by ``num`` at ``start`` and falls at
  ``finish``/``job-fail`` (a pset eviction releases the allocation at
  the instant of its ``job-fail`` record),
- utilization integrates that step function over
  ``[first arrival, last finish]`` and divides by ``M × span``,
  matching ``UtilizationTracker.mean_utilization(..., until=last_finish)``.

>>> from repro.sim.trace import TraceRecord
>>> records = [
...     TraceRecord(0.0, "arrive", {"job": 1, "num": 160}),
...     TraceRecord(0.0, "start", {"job": 1, "num": 160}),
...     TraceRecord(100.0, "finish", {"job": 1, "num": 160}),
... ]
>>> result = replay(records, meta={"machine_size": 320})
>>> metrics = recompute_metrics(result)
>>> metrics.n_jobs, metrics.utilization, metrics.makespan
(1, 0.5, 100.0)
>>> metrics.mean_wait, metrics.slowdown
(0.0, 1.0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.records import JobRecord, RunMetrics
from repro.metrics.stats import bounded_slowdown, mean, paper_slowdown
from repro.sim.trace import TraceRecord
from repro.workload.job import JobKind

#: Environment switch: validate every traced ``execute_spec`` run
#: against its own trace (the oracle as a runtime guard, not only a
#: test); off by default to keep traced runs cheap.
ENV_TRACE_VALIDATE = "REPRO_TRACE_VALIDATE"

#: ``job_kind`` payload value -> :class:`JobKind`, without the enum
#: call per arrival.
_JOB_KINDS = {kind.value: kind for kind in JobKind}

#: Default oracle tolerance (relative); the acceptance bar of
#: docs/observability.md.
REL_TOLERANCE = 1e-9


class TraceOracleError(ValueError):
    """Trace-recomputed metrics disagree with the simulator's.

    Raised by :func:`assert_consistent`; the message lists every
    mismatching metric with both values.  This is always a bug — in
    the trace export, the runner's accounting, or the replay — never
    an expected condition.
    """


@dataclass(frozen=True)
class ECCEpisode:
    """One elastic command as seen in a trace.

    Attributes:
        time: Instant the command was processed.
        job_id: Target job.
        kind: CWF request type tag (``ET``/``RT``/``EP``/``RP``).
        amount: Requested extension/reduction amount.
        outcome: :class:`~repro.core.elastic.ECCOutcome` value string,
            or ``"dropped-not-elastic"`` for commands a non-elastic
            policy discarded.
        num: Job size after the command (None for traces written
            before the field existed).
        origin: ``"job"`` for workload-submitted commands, or
            ``"scheduler"`` for Malleable-* runtime resizes
            (docs/malleability.md) — both replay identically; the tag
            only attributes who initiated the change.
    """

    time: float
    job_id: int
    kind: str
    amount: float
    outcome: str
    num: Optional[int] = None
    origin: str = "job"

    @property
    def applied(self) -> bool:
        """Whether the command actually modified its job."""
        return self.outcome in ("applied-queued", "applied-running", "terminated-job")


@dataclass(frozen=True)
class TraceMetrics:
    """The paper's §V metrics, recomputed from a trace alone."""

    n_jobs: int
    mean_wait: float
    mean_runtime: float
    mean_response: float
    slowdown: float
    mean_bounded_slowdown: float
    utilization: float
    makespan: float

    def as_row(self) -> Dict[str, float]:
        """Flat dict for tabular reports."""
        return {
            "n_jobs": float(self.n_jobs),
            "utilization": self.utilization,
            "mean_wait": self.mean_wait,
            "mean_runtime": self.mean_runtime,
            "mean_response": self.mean_response,
            "slowdown": self.slowdown,
            "bounded_slowdown": self.mean_bounded_slowdown,
            "makespan": self.makespan,
        }


@dataclass(frozen=True)
class TraceReplay:
    """Full timeline reconstruction of one traced run.

    Attributes:
        meta: The trace header metadata (empty for raw record lists).
        records: Completion records rebuilt from the trace, in
            completion order — the same order ``RunMetrics.records``
            uses, so means accumulate identically.  ``killed`` is not
            reconstructible from the trace and is always False.
        utilization_steps: The busy-processor step function as
            ``(time, level)`` points, one per distinct instant.
        queue_depth: Waiting-job count over time, one point per
            distinct instant the count changed.
        ecc_episodes: Every elastic command in the trace, in order.
        start_time: First arrival (the utilization window's left edge).
        last_finish: Final completion (the window's right edge;
            equals ``start_time`` when nothing completed).
        peak_level: Maximum busy level reached.
        machine_size: ``M`` from the header (None when absent).
        n_trace_records: Records replayed.
    """

    meta: Dict[str, Any]
    records: List[JobRecord]
    utilization_steps: List[Tuple[float, int]]
    queue_depth: List[Tuple[float, int]]
    ecc_episodes: List[ECCEpisode]
    start_time: float
    last_finish: float
    peak_level: int
    machine_size: Optional[int] = None
    n_trace_records: int = 0

    @property
    def span(self) -> float:
        """The metric window ``last_finish - start_time``."""
        return self.last_finish - self.start_time

    def busy_area(self, until: Optional[float] = None) -> float:
        """Busy processor-seconds in ``[start_time, until]``.

        ``until`` defaults to :attr:`last_finish`; the final level is
        assumed to persist past the last step.
        """
        horizon = self.last_finish if until is None else float(until)
        area = 0.0
        previous_time: Optional[float] = None
        previous_level = 0
        for time, level in self.utilization_steps:
            if previous_time is not None:
                area += previous_level * (min(time, horizon) - min(previous_time, horizon))
            previous_time, previous_level = time, level
        if previous_time is not None and horizon > previous_time:
            area += previous_level * (horizon - previous_time)
        return area

    def mean_utilization(self, until: Optional[float] = None) -> float:
        """Mean busy fraction of ``machine_size`` over the window."""
        total = self.machine_size
        horizon = self.last_finish if until is None else float(until)
        span = horizon - self.start_time
        if not total or total <= 0 or span <= 0:
            return 0.0
        return self.busy_area(until=horizon) / (total * span)


@dataclass(slots=True)
class _JobReplayState:
    """Mutable per-job state while scanning the record stream."""

    submit: float = 0.0
    num: int = 0
    kind: JobKind = JobKind.BATCH
    requested_start: Optional[float] = None
    last_start: Optional[float] = None
    running_num: int = 0
    eccs_applied: int = 0
    cancelled_running: bool = False


def replay(
    records: Iterable[TraceRecord], meta: Optional[Mapping[str, Any]] = None
) -> TraceReplay:
    """Reconstruct the full timeline of a traced run.

    Args:
        records: Trace records in file order (time-ordered; use
            ``repro trace --check`` first when in doubt).
        meta: Trace header metadata; ``machine_size`` enables
            utilization.

    Returns:
        A :class:`TraceReplay` with the rebuilt completion records,
        the utilization and queue-depth step functions, and every ECC
        episode.
    """
    meta = dict(meta or {})
    machine_size = meta.get("machine_size")
    machine_size = int(machine_size) if machine_size is not None else None

    jobs: Dict[int, _JobReplayState] = {}
    completed: List[JobRecord] = []
    ecc_episodes: List[ECCEpisode] = []
    utilization_steps: List[Tuple[float, int]] = []
    queue_depth: List[Tuple[float, int]] = []
    # Instant of each step function's last point: a change at the same
    # instant overwrites that point instead of adding one.
    level_time: Optional[float] = None
    queue_time: Optional[float] = None
    level = 0
    peak = 0
    waiting = 0
    start_time: Optional[float] = None
    last_finish: Optional[float] = None
    n = 0

    for record in records:
        n += 1
        time = record.time
        kind = record.kind
        data = record.data
        if start_time is None:
            start_time = time

        if kind == "arrive":
            state = jobs.setdefault(int(data.get("job")), _JobReplayState())
            state.submit = time
            state.num = int(data.get("num", 0))
            job_kind = data.get("job_kind", JobKind.BATCH.value)
            state.kind = _JOB_KINDS.get(job_kind) or JobKind(job_kind)
            requested = data.get("requested_start")
            state.requested_start = (
                float(requested) if requested is not None else None
            )
            waiting += 1
            if queue_time == time:
                queue_depth[-1] = (time, waiting)
            else:
                queue_depth.append((time, waiting))
                queue_time = time
        elif kind == "requeue":
            job_id = data.get("job")
            if job_id is not None and int(job_id) in jobs:
                waiting += 1
                if queue_time == time:
                    queue_depth[-1] = (time, waiting)
                else:
                    queue_depth.append((time, waiting))
                    queue_time = time
        elif kind == "start":
            job_id = data.get("job")
            state = jobs.get(int(job_id)) if job_id is not None else None
            if state is None:
                state = jobs.setdefault(int(job_id), _JobReplayState())
                state.submit = time
            state.last_start = time
            state.running_num = int(data.get("num", state.num))
            level += state.running_num
            if level > peak:
                peak = level
            if level_time == time:
                utilization_steps[-1] = (time, level)
            else:
                utilization_steps.append((time, level))
                level_time = time
            if waiting > 0:
                waiting -= 1
            if queue_time == time:
                queue_depth[-1] = (time, waiting)
            else:
                queue_depth.append((time, waiting))
                queue_time = time
        elif kind == "finish" or kind == "job-fail":
            job_id = data.get("job")
            state = jobs.get(int(job_id)) if job_id is not None else None
            if state is None or state.last_start is None:
                continue
            num = int(data.get("num", state.running_num))
            level -= num
            if level_time == time:
                utilization_steps[-1] = (time, level)
            else:
                utilization_steps.append((time, level))
                level_time = time
            if kind == "job-fail":
                state.last_start = None
                continue
            last_finish = time
            completed.append(
                JobRecord(
                    job_id=int(job_id),
                    kind=state.kind,
                    num=num,
                    submit=state.submit,
                    start=state.last_start,
                    finish=time,
                    requested_start=state.requested_start,
                    eccs_applied=state.eccs_applied,
                    cancelled=state.cancelled_running,
                )
            )
        elif kind == "cancel":
            if data.get("was") == "queued":
                if waiting > 0:
                    waiting -= 1
                if queue_time == time:
                    queue_depth[-1] = (time, waiting)
                else:
                    queue_depth.append((time, waiting))
                    queue_time = time
            else:
                job_id = data.get("job")
                state = jobs.get(int(job_id)) if job_id is not None else None
                if state is not None:
                    state.cancelled_running = True
        elif kind == "ecc" or kind == "ecc-dropped":
            job_id = data.get("job")
            state = jobs.get(int(job_id)) if job_id is not None else None
            num = data.get("num")
            episode = ECCEpisode(
                time=time,
                job_id=int(job_id) if job_id is not None else -1,
                kind=str(data.get("ecc_kind", "?")),
                amount=float(data.get("amount", 0.0)),
                outcome=str(data.get("outcome", "dropped-not-elastic")),
                num=int(num) if num is not None else None,
                origin=str(data.get("origin", "job")),
            )
            ecc_episodes.append(episode)
            if state is None:
                continue
            applied = episode.applied
            if applied:
                state.eccs_applied += 1
            if episode.num is not None:
                if state.last_start is None:
                    state.num = episode.num
                elif applied and episode.num != state.running_num:
                    # Running resize (EP/RP under a malleable policy,
                    # docs/malleability.md): the busy level steps by
                    # the size delta at the command instant.
                    # Time-ECCs echo the unchanged size, so only
                    # genuine resizes land here.
                    level += episode.num - state.running_num
                    if level > peak:
                        peak = level
                    if level_time == time:
                        utilization_steps[-1] = (time, level)
                    else:
                        utilization_steps.append((time, level))
                        level_time = time
                    state.running_num = episode.num
        # "promote", "decision", "node-fail", "node-repair" and
        # "job-failed-permanently" change no replayed quantity:
        # promotion moves a job between queues (total waiting
        # unchanged), node events alter capacity placement but not the
        # busy level (evictions release at their own job-fail record).

    if start_time is None:
        start_time = 0.0
    if last_finish is None:
        last_finish = start_time
    return TraceReplay(
        meta=meta,
        records=completed,
        utilization_steps=utilization_steps,
        queue_depth=queue_depth,
        ecc_episodes=ecc_episodes,
        start_time=start_time,
        last_finish=last_finish,
        peak_level=peak,
        machine_size=machine_size,
        n_trace_records=n,
    )


def recompute_metrics(source: "TraceReplay | Sequence[TraceRecord]",
                      meta: Optional[Mapping[str, Any]] = None) -> TraceMetrics:
    """Derive the paper's metrics from a trace, independently.

    Accepts either a prepared :class:`TraceReplay` or raw records plus
    header ``meta``.  Mirrors the :class:`~repro.metrics.records.RunMetrics`
    definitions exactly: means over completion records in completion
    order, the ratio-of-means slowdown, Feitelson bounded slowdown,
    and the exact utilization integral over
    ``[first arrival, last finish]``.
    """
    result = source if isinstance(source, TraceReplay) else replay(source, meta)
    waits = [r.wait for r in result.records]
    runtimes = [r.runtime for r in result.records]
    mean_wait = mean(waits)
    mean_runtime = mean(runtimes)
    return TraceMetrics(
        n_jobs=len(result.records),
        mean_wait=mean_wait,
        mean_runtime=mean_runtime,
        mean_response=mean(w + r for w, r in zip(waits, runtimes)),
        slowdown=paper_slowdown(mean_wait, mean_runtime),
        mean_bounded_slowdown=mean(bounded_slowdown(zip(waits, runtimes))),
        utilization=result.mean_utilization(),
        makespan=result.span,
    )


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
#: (metric name, RunMetrics attribute) pairs the oracle compares.
ORACLE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("mean_wait", "mean_wait"),
    ("mean_runtime", "mean_runtime"),
    ("mean_response", "mean_response"),
    ("slowdown", "slowdown"),
    ("mean_bounded_slowdown", "mean_bounded_slowdown"),
    ("utilization", "utilization"),
    ("makespan", "makespan"),
)


def cross_validate(
    source: "TraceReplay | Sequence[TraceRecord]",
    metrics: RunMetrics,
    *,
    rel_tol: float = REL_TOLERANCE,
    abs_tol: float = 1e-12,
) -> List[str]:
    """Compare trace-recomputed metrics against simulator metrics.

    Returns a list of human-readable mismatch findings (empty = the
    trace and the simulator agree on every compared metric).  The job
    count is compared exactly; float metrics with
    ``math.isclose(rel_tol, abs_tol)``.
    """
    result = source if isinstance(source, TraceReplay) else replay(source)
    recomputed = recompute_metrics(result)
    findings: List[str] = []
    if recomputed.n_jobs != metrics.n_jobs:
        findings.append(
            f"n_jobs: trace has {recomputed.n_jobs} completions, "
            f"RunMetrics has {metrics.n_jobs}"
        )
    for trace_name, run_name in ORACLE_METRICS:
        ours = getattr(recomputed, trace_name)
        theirs = getattr(metrics, run_name)
        if not math.isclose(ours, theirs, rel_tol=rel_tol, abs_tol=abs_tol):
            findings.append(
                f"{trace_name}: trace recomputes {ours!r}, "
                f"RunMetrics reports {theirs!r} "
                f"(delta {abs(ours - theirs):.3e})"
            )
    return findings


def assert_consistent(
    source: "TraceReplay | Sequence[TraceRecord]",
    metrics: RunMetrics,
    *,
    rel_tol: float = REL_TOLERANCE,
    context: str = "",
) -> None:
    """Hard-error form of :func:`cross_validate`.

    Raises:
        TraceOracleError: when any compared metric disagrees beyond
            ``rel_tol``; the message lists every mismatch.
    """
    findings = cross_validate(source, metrics, rel_tol=rel_tol)
    if findings:
        where = f" [{context}]" if context else ""
        raise TraceOracleError(
            f"trace-recomputed metrics disagree with RunMetrics{where}:\n  "
            + "\n  ".join(findings)
        )


def validate_trace_file(path: str, metrics: RunMetrics, *,
                        rel_tol: float = REL_TOLERANCE) -> None:
    """Read a trace file and run the oracle against ``metrics``.

    Raises:
        TraceOracleError: on any metric mismatch.
        repro.obs.trace_io.TraceReadError: when the file is malformed.
    """
    from repro.obs.trace_io import read_trace

    trace = read_trace(path)
    assert_consistent(
        replay(trace.records, trace.meta), metrics,
        rel_tol=rel_tol, context=str(path),
    )


__all__ = [
    "ECCEpisode",
    "ENV_TRACE_VALIDATE",
    "ORACLE_METRICS",
    "REL_TOLERANCE",
    "TraceMetrics",
    "TraceOracleError",
    "TraceReplay",
    "assert_consistent",
    "cross_validate",
    "recompute_metrics",
    "replay",
    "validate_trace_file",
]
