"""Trace analytics: replay, metric recomputation, the correctness oracle.

Traces have a write side (``repro.trace/1`` JSONL export); this
module is the read side.  :func:`replay` reconstructs the full run
timeline from the records alone — processor-utilization step function,
queue depth, per-job Gantt spans, ECC episodes — and
:func:`recompute_metrics` derives the paper's §V metrics (mean wait,
mean response, slowdown, bounded slowdown, utilization, makespan) from
that reconstruction.

The completion means come from the one fold,
:class:`~repro.metrics.online.OnlineAggregator`, fed the completions the
replay rebuilt from the exported event stream alone, while the runner
feeds it the live jobs.  Equal completion streams give bit-equal
means, so :func:`cross_validate` compares those exactly: a difference
means the trace does not reproduce the runner's completions.
Utilization and makespan are separate integrals on each side (the
runner's :class:`~repro.cluster.accounting.UtilizationTracker`, the
replay's step function), compared within a float tolerance.  It also
lists every invariant the replay found broken (a start outside the
waiting phase, a busy level above the machine, an EP that shrank a
job, ...), which turns every traced run into a correctness oracle — a
finding means the trace export, the runner's bookkeeping, or this
replay is wrong, and
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
- the busy level rises by ``num`` at ``start`` and falls by what the
  job held at ``finish``/``job-fail`` (a pset eviction releases the
  allocation at the instant of its ``job-fail`` record),
- utilization integrates that step function over
  ``[first arrival, last finish]`` and divides by ``M × span``,
  matching the runner's busy area read at the last finish.

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
import sys
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.metrics.online import OnlineAggregator
from repro.metrics.records import JobRecord, RunMetrics
from repro.metrics.stats import paper_slowdown
from repro.obs.trace_io import TraceReadError, _iter_fields, iter_trace, read_meta
from repro.sim.trace import TraceFields, TraceRecord
from repro.workload.job import JobKind

#: Environment switch: validate every traced ``execute_spec`` run
#: against its own trace (the oracle as a runtime guard, not only a
#: test); off by default to keep traced runs cheap.
ENV_TRACE_VALIDATE = "REPRO_TRACE_VALIDATE"

#: ``job_kind`` payload value -> :class:`JobKind`, without the enum
#: call per arrival.
_JOB_KINDS = {kind.value: kind for kind in JobKind}
#: The ``job_kind`` of an arrival that names none (read once: an enum
#: member's ``.value`` is a Python-level property).
_BATCH = JobKind.BATCH.value

#: Default oracle tolerance (relative) of the integrals, utilization and
#: makespan; the acceptance bar of docs/observability.md.
REL_TOLERANCE = 1e-9


class TraceOracleError(ValueError):
    """A trace breaks an invariant or disagrees with the simulator's metrics.

    Raised by :func:`assert_consistent`; the message lists every
    invariant finding and every mismatching metric with both values.
    This is always a bug — in the trace export, the runner's
    accounting, or the replay — never an expected condition.
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
    mean_per_job_slowdown: float
    mean_dedicated_delay: float
    dedicated_on_time_rate: float
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
        findings: The trace's invariant violations, one line each
            (empty = all pass); :func:`replay` lists what it checks.
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
    findings: List[str] = field(default_factory=list)

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
    """Mutable per-job state while scanning the record stream.

    ``phase`` is the job's lifecycle state: None until a lifecycle
    record names the job, then ``"waiting"``, ``"running"``, ``"done"``,
    ``"failed"`` or ``"cancelled"``.  ``submit`` stays None until the
    job arrives or starts; only then does a ``requeue`` put it back in
    the queue, or an applied ECC or a running cancellation count for
    it.  ``size`` is the traced size (the ``arrive`` ``num`` as applied
    ECCs change it; None when unknown) and ``held`` the processors of
    the running attempt.
    """

    submit: Optional[float] = None
    phase: Optional[str] = None
    size: Optional[int] = None
    kind: JobKind = JobKind.BATCH
    requested_start: Optional[float] = None
    last_start: float = 0.0
    held: int = 0
    eccs_applied: int = 0
    cancelled_running: bool = False


#: Record kinds that name their job and move it through its lifecycle;
#: each must carry an integer ``job``.
_JOB_TRANSITIONS = frozenset({"arrive", "start", "finish", "job-fail"})
#: Processor-dimension vs. time-dimension ECC tags.
_RESOURCE_COMMANDS = frozenset({"EP", "RP"})
_TIME_COMMANDS = frozenset({"ET", "RT", "S"})


def replay(
    records: Iterable[TraceFields],
    meta: Optional[Mapping[str, Any]] = None,
    *,
    source: str = "<records>",
) -> TraceReplay:
    """Reconstruct the full timeline of a traced run and check its invariants.

    The walk that rebuilds the run also checks, into
    :attr:`TraceReplay.findings` (empty = all pass):

    - record times are non-decreasing,
    - per job: ``start`` only while waiting (after ``arrive``,
      ``requeue`` or ``promote``), ``finish``/``job-fail`` only while
      running, at most one ``arrive``,
    - a job starts with its traced size (the ``arrive`` ``num`` as
      applied ECCs changed it) and releases what it held,
    - with ``machine_size``: the busy level never exceeds it,
    - elastic-policy invariants, on ``ecc`` records that carry the
      post-command ``num``: an applied ``EP`` never shrinks a job,
      ``RP`` never grows one, time-dimension commands (``ET``/``RT``)
      never change its size, no size exceeds ``machine_size``, and
      job-origin resource commands never apply to a running job
      (scheduler-origin ones from the Malleable-* policies are the
      sanctioned exception: the busy level follows the new size),
    - a ``terminated-job`` outcome is followed by that job's
      ``finish`` at the same instant.

    Time-order findings come first, then the others in record order,
    then terminated jobs that never finished, by job.

    Args:
        records: Trace records in file order, as :class:`TraceRecord`
            objects or plain ``(time, kind, data)`` tuples; any
            iterable, consumed once.
        meta: Trace header metadata; ``machine_size`` enables
            utilization and the capacity checks.
        source: Name of the records' origin (a trace path) for error
            messages.

    Returns:
        A :class:`TraceReplay` with the rebuilt completions, the
        utilization and queue-depth step functions, every ECC episode
        and the invariant findings.

    Raises:
        repro.obs.trace_io.TraceReadError: when an ``arrive``,
            ``start``, ``finish`` or ``job-fail`` record has no integer
            ``job``, or any record's ``job`` is not an integer; the
            message names the record's position and kind.
    """
    meta = dict(meta or {})
    machine_size = meta.get("machine_size")
    machine_size = int(machine_size) if machine_size is not None else None
    capacity = math.inf if machine_size is None else machine_size

    jobs: Dict[int, _JobReplayState] = {}
    completed: List[JobRecord] = []
    ecc_episodes: List[ECCEpisode] = []
    utilization_steps: List[Tuple[float, int]] = []
    queue_depth: List[Tuple[float, int]] = []
    disorder: List[str] = []
    findings: List[str] = []
    # Instant each terminated-job ECC expects its job's finish at.
    terminated: Dict[int, float] = {}
    # Instant of each step function's last point: a change at the same
    # instant overwrites that point instead of adding one.
    level_time: Optional[float] = None
    queue_time: Optional[float] = None
    level = 0
    peak = 0
    waiting = 0
    previous = -math.inf
    start_time: Optional[float] = None
    last_finish: Optional[float] = None
    n = 0

    for n, (time, kind, data) in enumerate(records, 1):
        if time < previous:
            disorder.append(f"record {n}: time {time:g} precedes {previous:g}")
        previous = time
        if start_time is None:
            start_time = time

        job = data.get("job")
        if job is None:
            if kind in _JOB_TRANSITIONS:
                raise _no_job(n, kind, source)
        else:
            try:
                job = int(job)
            except (TypeError, ValueError):
                raise _no_job(n, kind, source) from None

        if kind == "arrive":
            state = jobs.get(job)
            if state is None:
                state = jobs[job] = _JobReplayState(phase="waiting")
            elif state.phase is None:
                state.phase = "waiting"
            else:
                findings.append(f"job {job}: 'arrive' at t={time:g} but job was already seen")
            state.submit = time
            num = data.get("num")
            if num is not None:
                state.size = int(num)
            job_kind = data.get("job_kind", _BATCH)
            state.kind = _JOB_KINDS.get(job_kind) or JobKind(job_kind)
            requested = data.get("requested_start")
            state.requested_start = float(requested) if requested is not None else None
            waiting += 1
            if queue_time == time:
                queue_depth[-1] = (time, waiting)
            else:
                queue_depth.append((time, waiting))
                queue_time = time
        elif kind == "start":
            state = jobs.get(job)
            if state is None:
                state = jobs[job] = _JobReplayState()
            if state.phase != "waiting":
                findings.append(f"job {job}: 'start' at t={time:g} but job is not waiting")
            state.phase = "running"
            if state.submit is None:
                state.submit = time
            num = int(data.get("num", 0))
            if state.size is not None and num != state.size:
                findings.append(
                    f"job {job}: starts with {num} procs at t={time:g} but its "
                    f"traced size (arrive + applied ECCs) is {state.size}"
                )
            state.last_start = time
            state.held = num
            level += num
            if level > peak:
                peak = level
            if level > capacity:
                findings.append(
                    f"t={time:g}: traced occupancy {level} exceeds machine size {machine_size}"
                )
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
            state = jobs.get(job)
            if state is None:
                state = jobs[job] = _JobReplayState()
            if state.phase != "running":
                findings.append(f"job {job}: {kind!r} at t={time:g} but job is not running")
            else:
                num = int(data.get("num", 0))
                held = state.held
                if num != held:
                    findings.append(
                        f"job {job}: releases {num} procs at t={time:g} but held {held}"
                    )
                level -= held
                if level_time == time:
                    utilization_steps[-1] = (time, level)
                else:
                    utilization_steps.append((time, level))
                    level_time = time
                if kind == "finish":
                    last_finish = time
                    completed.append(JobRecord(
                        job, state.kind, num, state.submit, state.last_start, time,
                        state.requested_start, state.eccs_applied, False,
                        state.cancelled_running,
                    ))
            if kind == "finish":
                state.phase = "done"
                if terminated and job in terminated:
                    expected = terminated.pop(job)
                    if time != expected:
                        findings.append(
                            f"job {job}: terminated by an ECC at t={expected:g} "
                            f"but finished at t={time:g}"
                        )
            else:
                state.phase = "failed"
        elif kind == "requeue" or kind == "promote":
            if job is None:
                continue
            state = jobs.get(job)
            if state is None:
                state = jobs[job] = _JobReplayState()
            state.phase = "waiting"
            if kind == "requeue" and state.submit is not None:
                waiting += 1
                if queue_time == time:
                    queue_depth[-1] = (time, waiting)
                else:
                    queue_depth.append((time, waiting))
                    queue_time = time
        elif kind == "cancel":
            was = data.get("was")
            if was == "queued":
                if job is not None:
                    state = jobs.get(job)
                    if state is None:
                        state = jobs[job] = _JobReplayState()
                    state.phase = "cancelled"
                if waiting > 0:
                    waiting -= 1
                if queue_time == time:
                    queue_depth[-1] = (time, waiting)
                else:
                    queue_depth.append((time, waiting))
                    queue_time = time
            elif was == "running" and job is not None:
                # A "pending" job waited out a retry backoff in no queue.
                state = jobs.get(job)
                if state is not None and state.submit is not None:
                    state.cancelled_running = True
        elif kind == "ecc" or kind == "ecc-dropped":
            num = data.get("num")
            episode = ECCEpisode(
                time=time,
                job_id=job if job is not None else -1,
                kind=str(data.get("ecc_kind", "?")),
                amount=float(data.get("amount", 0.0)),
                outcome=str(data.get("outcome", "dropped-not-elastic")),
                num=int(num) if num is not None else None,
                origin=str(data.get("origin", "job")),
            )
            ecc_episodes.append(episode)
            if kind != "ecc" or job is None:
                continue
            if episode.outcome == "terminated-job":
                terminated[job] = time
            if not episode.applied:
                continue
            state = jobs.get(job)
            if state is None:
                state = jobs[job] = _JobReplayState()
            if state.submit is not None:
                state.eccs_applied += 1
            command = episode.kind
            new = episode.num
            if new is None:
                # A trace written before ECC records carried ``num``:
                # a resource command leaves the job's size unknown.
                if command in _RESOURCE_COMMANDS:
                    state.size = None
                continue
            old = state.size
            if old is not None:
                if command == "EP" and new < old:
                    findings.append(
                        f"job {job}: applied EP at t={time:g} shrank size {old} -> {new}"
                    )
                elif command == "RP" and new > old:
                    findings.append(
                        f"job {job}: applied RP at t={time:g} grew size {old} -> {new}"
                    )
                elif command in _TIME_COMMANDS and new != old:
                    findings.append(
                        f"job {job}: time-dimension {command} at t={time:g} changed "
                        f"size {old} -> {new}"
                    )
            delta = 0
            if command in _RESOURCE_COMMANDS and state.phase == "running":
                if episode.origin == "scheduler":
                    # Runtime malleability (docs/malleability.md): the
                    # allocation, and so the busy level, steps by the
                    # size delta at the command instant.
                    delta = new - state.held
                    state.held = new
                else:
                    findings.append(
                        f"job {job}: resource ECC {command} applied at t={time:g} "
                        "while the job is running (sizes are fixed once started)"
                    )
            if new > capacity:
                findings.append(
                    f"job {job}: ECC at t={time:g} grows size to {new}, exceeding "
                    f"machine size {machine_size}"
                )
            state.size = new
            if delta:
                level += delta
                if level > peak:
                    peak = level
                if level > capacity:
                    findings.append(
                        f"t={time:g}: traced occupancy {level} exceeds "
                        f"machine size {machine_size}"
                    )
                if level_time == time:
                    utilization_steps[-1] = (time, level)
                else:
                    utilization_steps.append((time, level))
                    level_time = time
        # "decision", "node-fail", "node-repair" and
        # "job-failed-permanently" change no replayed quantity: node
        # events alter capacity placement but not the busy level
        # (evictions release at their own job-fail record).

    if start_time is None:
        start_time = 0.0
    if last_finish is None:
        last_finish = start_time
    findings = disorder + findings
    findings += [
        f"job {job}: terminated by an ECC at t={expected:g} but never finished"
        for job, expected in sorted(terminated.items())
    ]
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
        findings=findings,
    )


def _no_job(n: int, kind: str, source: str) -> TraceReadError:
    """The error for record ``n``, whose ``job`` is missing or not an integer."""
    return TraceReadError(f"record {n} ({kind!r}) has no integer 'job' field", source=source)


def recompute_metrics(result: TraceReplay) -> TraceMetrics:
    """Derive the paper's metrics from a replayed trace.

    The completion statistics fold the replayed completions, in
    completion order, through the same
    :class:`~repro.metrics.online.OnlineAggregator` the runner feeds;
    utilization is the exact integral of the replayed step function
    over ``[first arrival, last finish]``.
    """
    fold = OnlineAggregator()
    add = fold.add
    for _, kind, _, submit, start, finish, requested_start, _, _, _ in result.records:
        add(kind, submit, start, finish, requested_start)
    stats = fold.stats()
    return TraceMetrics(
        slowdown=paper_slowdown(stats["mean_wait"], stats["mean_runtime"]),
        utilization=result.mean_utilization(),
        makespan=result.span,
        **stats,
    )


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
#: Metrics both sides fold with :class:`OnlineAggregator`; the oracle
#: requires them equal, bit for bit.
FOLDED_METRICS: Tuple[str, ...] = (
    "n_jobs",
    "mean_wait",
    "mean_runtime",
    "mean_response",
    "mean_bounded_slowdown",
    "mean_per_job_slowdown",
    "mean_dedicated_delay",
    "dedicated_on_time_rate",
)
#: Integrals each side computes its own way; compared within ``rel_tol``.
INTEGRAL_METRICS: Tuple[str, ...] = ("utilization", "makespan")


def cross_validate(
    result: TraceReplay,
    metrics: RunMetrics,
    *,
    rel_tol: float = REL_TOLERANCE,
    abs_tol: float = 1e-12,
) -> List[str]:
    """Compare trace-recomputed metrics against simulator metrics.

    Returns a list of human-readable findings (empty = the trace keeps
    every invariant :func:`replay` checks and agrees with the simulator
    on every compared metric): the replay's invariant findings first,
    then the metric mismatches.  :data:`FOLDED_METRICS` are compared
    exactly, :data:`INTEGRAL_METRICS` with
    ``math.isclose(rel_tol, abs_tol)``.
    """
    recomputed = recompute_metrics(result)
    findings = list(result.findings)
    for name in FOLDED_METRICS + INTEGRAL_METRICS:
        ours = getattr(recomputed, name)
        theirs = getattr(metrics, name)
        if ours == theirs or (
            name in INTEGRAL_METRICS
            and math.isclose(ours, theirs, rel_tol=rel_tol, abs_tol=abs_tol)
        ):
            continue
        findings.append(
            f"{name}: trace recomputes {ours!r}, RunMetrics reports {theirs!r} "
            f"(delta {abs(ours - theirs):.3e})"
        )
    return findings


def assert_consistent(
    result: TraceReplay,
    metrics: RunMetrics,
    *,
    rel_tol: float = REL_TOLERANCE,
    context: str = "",
) -> None:
    """Hard-error form of :func:`cross_validate`.

    Raises:
        TraceOracleError: when the trace breaks an invariant or any
            compared metric disagrees beyond ``rel_tol``; the message
            lists every finding.
    """
    findings = cross_validate(result, metrics, rel_tol=rel_tol)
    if findings:
        where = f" [{context}]" if context else ""
        raise TraceOracleError(
            f"trace fails the oracle against RunMetrics{where}:\n  "
            + "\n  ".join(findings)
        )


def replay_file(
    path: Union[str, Path],
    *,
    strict: bool = True,
    records: Optional[List[TraceRecord]] = None,
) -> TraceReplay:
    """Open the trace file at ``path`` and :func:`replay` it as it streams.

    The one way ``repro trace``, ``repro explain``, ``repro report``
    and :func:`validate_trace_file` read a trace.  A view that needs
    the records passes an empty ``records`` list to be filled with
    them; ``strict`` is :func:`~repro.obs.trace_io.iter_trace`'s.
    Raises :class:`OSError` or :class:`TraceReadError` on a file that
    cannot be opened or read.
    """
    if records is None:
        fields = _iter_fields(path, strict=strict)
    else:
        records.extend(iter_trace(path, strict=strict))
        fields = records
    return replay(fields, read_meta(path), source=str(path))


def validate_trace_file(path: Union[str, Path], metrics: RunMetrics, *,
                        rel_tol: float = REL_TOLERANCE) -> None:
    """Replay a trace file as it streams and run the oracle against ``metrics``.

    Raises:
        TraceOracleError: on any invariant finding or metric mismatch.
        repro.obs.trace_io.TraceReadError: when the file is malformed.
    """
    assert_consistent(replay_file(path), metrics, rel_tol=rel_tol, context=str(path))


def trace_cli(main: Callable[[Optional[Sequence[str]]], int]) -> Callable[..., int]:
    """Make an unreadable trace end a trace subcommand with exit code 2.

    A trace that ``main`` cannot open (:class:`OSError`) or read
    (:class:`TraceReadError`) prints its one-line message on stderr."""

    @wraps(main)
    def run(argv: Optional[Sequence[str]] = None) -> int:
        try:
            return main(argv)
        except (OSError, TraceReadError) as exc:
            print(exc, file=sys.stderr)
            return 2

    return run


__all__ = [
    "ECCEpisode",
    "ENV_TRACE_VALIDATE",
    "FOLDED_METRICS",
    "INTEGRAL_METRICS",
    "REL_TOLERANCE",
    "TraceMetrics",
    "TraceOracleError",
    "TraceReplay",
    "assert_consistent",
    "cross_validate",
    "recompute_metrics",
    "replay",
    "replay_file",
    "trace_cli",
    "validate_trace_file",
]
