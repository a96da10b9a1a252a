"""Event-driven simulation of one (workload, scheduler) pair.

The runner owns the clock, machine, queues and event wiring; the
policy only decides.  Event semantics (see
:class:`repro.sim.events.EventPriority` for same-instant ordering):

- *arrival*: the job joins ``W^b`` (batch) or ``W^d`` (dedicated, plus
  a timer at its rigid requested start),
- *finish*: processors release, the job's record is frozen,
- *ECC*: the elastic control queue hands the command to the ECC
  processor (elastic policies only); a changed kill-by time
  reschedules the finish event — the core of runtime elasticity,
- *cycle*: the policy runs to fix-point — every pass's decision is
  applied (malleability commands, then promotions, then starts) and
  the policy re-invoked until it makes none, with
  ``allow_scount_increment`` true only on the first pass so a skipped
  head counts once per scheduling cycle.

Every state transition is recorded in a :class:`~repro.sim.TraceLog`
when tracing is on; tests assert event-level invariants on it.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Union

from repro.cluster.accounting import UtilizationTracker
from repro.cluster.machine import Machine
from repro.core.base import (
    REASON_FAULT_BACKOFF,
    CycleDecision,
    Scheduler,
    SchedulerContext,
)
from repro.core.elastic import ECCOutcome, ECCProcessor
from repro.core.memo import (
    BASIC_CACHE,
    RESERVATION_CACHE,
    clear_caches,
    memo_enabled,
)
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultConfig, RetryPolicy
from repro.metrics.online import OnlineAggregator
from repro.metrics.queue_stats import QueueTracker
from repro.metrics.records import (
    CancellationRecord,
    FailureRecord,
    JobRecord,
    RunMetrics,
)
from repro.obs import spans as obs_spans
from repro.obs import telemetry as obs_telemetry
from repro.queues.active_list import ActiveList
from repro.queues.batch_queue import BatchQueue
from repro.queues.dedicated_queue import DedicatedQueue
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event, EventPriority
from repro.sim.trace import TraceLog
from repro.workload.ecc import ECC, ECCKind
from repro.workload.generator import Workload
from repro.workload.job import Job, JobState
from repro.workload.streaming import JobStream, StreamItem

#: Hard cap on fix-point passes within one scheduling cycle; real
#: cycles converge in a handful of passes, so hitting this means a
#: policy is oscillating.
MAX_CYCLE_PASSES = 10_000


class SimulationRunner:
    """Simulates ``workload`` under ``scheduler`` on its machine.

    Args:
        workload: The input workload.  A :class:`Workload` is eager
            (jobs are copied; the object is reusable across runs and
            algorithms); a :class:`~repro.workload.streaming.JobStream`
            is consumed lazily as virtual time advances, holding only
            ``stream_window`` upcoming items plus the live jobs in
            memory (docs/scaling.md) — single-use, so build a fresh
            stream per run.
        online: Maintain an O(1)-memory
            :class:`~repro.metrics.online.OnlineAggregator` over
            completions and attach its summary as ``metrics.online``.
            Means are bitwise-equal to the record-based ones; the p95
            is a P² approximation.
        retain_records: Keep the per-job :class:`JobRecord` list
            (default).  ``False`` (requires ``online=True``) drops it
            so metrics memory stays flat at archive scale.
        stream_window: Upcoming stream items kept scheduled ahead of
            the clock (streaming mode only).  Same-instant arrival
            ordering caveat: streamed arrivals are enqueued as the
            window slides, so an arrival sharing its exact instant and
            priority with a dynamically scheduled event (a fault
            requeue) may fire after it where the eager runner — which
            pre-schedules every arrival first — fired it before.
            Metrics under faults can therefore differ in such ties;
            fault-free runs are unaffected.
        scheduler: The policy to drive.
        trace: Record a full in-memory :class:`TraceLog`
            (tests/debugging).
        trace_out: Stream every trace record to this path as JSONL
            (schema ``repro.trace/1``; docs/observability.md).
            Independent of ``trace``: with ``trace_out`` alone,
            records go straight to disk and memory stays flat.
            Tracing never changes scheduling — metrics are identical
            with and without it.
        spans: Record hierarchical phase spans
            (:mod:`repro.obs.spans`) for this run; per-phase
            self/cumulative wall time lands in the telemetry snapshot
            (``span_*`` counters/timers).  Off by default — the
            disabled path costs nothing and traces are byte-identical
            either way (CI-enforced).
        spans_out: Also write the spans as a Chrome trace-event JSON
            file (open in Perfetto or chrome://tracing).  Implies
            ``spans=True``.
        decisions: Record decision provenance: whenever the policy
            passes over a queued job it reports a reason code
            (:data:`repro.core.base.DECISION_REASONS`), deduplicated
            per job and emitted as ``decision`` records in the trace
            stream (rendered by ``repro explain --job N``).  Off by
            default, keeping the trace byte-identical to prior
            versions; enabling it only adds ``decision`` records.
        max_eccs_per_job: Optional per-job ECC budget (§III-C).
        allow_resource_eccs: Opt-in for the EP/RP prototype.
        faults: Optional fault model (docs/resilience.md).  Node
            faults switch the machine to placement tracking so psets
            can fail; job faults schedule per-attempt crashes.
        retry: Recovery policy for failed/evicted jobs; defaults to
            :class:`~repro.faults.model.RetryPolicy` (3 retries, no
            backoff, no checkpointing).  Only consulted when faults
            are injected.

    Raises:
        ValueError: when the workload contains dedicated jobs but the
            policy does not handle a dedicated queue, or when any job
            violates the machine's size/granularity constraints.
    """

    def __init__(
        self,
        workload: Union[Workload, JobStream],
        scheduler: Scheduler,
        *,
        trace: bool = False,
        trace_out: Optional[Union[str, Path]] = None,
        spans: bool = False,
        spans_out: Optional[Union[str, Path]] = None,
        decisions: bool = False,
        max_eccs_per_job: Optional[int] = None,
        allow_resource_eccs: bool = False,
        faults: Optional[FaultConfig] = None,
        retry: Optional[RetryPolicy] = None,
        online: bool = False,
        retain_records: bool = True,
        stream_window: int = 64,
    ) -> None:
        self.workload = workload
        self.scheduler = scheduler
        self.retry = retry if retry is not None else RetryPolicy()
        if not retain_records and not online:
            raise ValueError(
                "retain_records=False discards the per-job records; enable "
                "online=True so the run still produces statistics"
            )
        self._retain_records = retain_records
        self._online = OnlineAggregator() if online else None
        self._streaming = isinstance(workload, JobStream)
        # Streaming bookkeeping (all zero/idle in eager mode): the
        # admitted/retired counters replace scans over ``self.jobs``
        # (which streaming keeps empty), and the span/work accumulators
        # reproduce Workload.offered_load() from pristine pulls.
        self._jobs_admitted = 0
        self._jobs_retired = 0
        self._stream_inflight = 0
        self._stream_exhausted = True
        # Items pulled from the stream iterator so far.  A checkpoint
        # persists this count; resume rebuilds the (unpicklable)
        # iterator from the stream's spec and fast-forwards exactly
        # this many items (repro.durable.checkpoint).
        self._stream_pulled = 0
        self._stream_first: Optional[StreamItem] = None
        self._span_start: Optional[float] = None
        self._span_end = 0.0
        self._work_sum = 0.0
        if self._streaming:
            if stream_window < 1:
                raise ValueError(
                    f"stream_window must be positive, got {stream_window}"
                )
            self.jobs: List[Job] = []
            self._jobs_by_id: Dict[int, Job] = {}
            self._stream_iter = iter(workload)
            self._stream_window = stream_window
            # The stream contract says submissions lead their commands,
            # so a peek at the first item yields the simulation start
            # time without materializing anything else.
            first = next(self._stream_iter, None)
            if first is not None:
                self._stream_pulled += 1
            if first is None:
                raise ValueError(
                    "job stream yielded no items — streams are single-use; "
                    "build a fresh JobStream for every run"
                )
            if isinstance(first, ECC):
                raise ValueError(
                    f"job stream starts with an ECC for job {first.job_id}; "
                    "submissions must precede their commands"
                )
            self._stream_first = first
            self._stream_exhausted = False
            start = first.submit
        else:
            self.jobs = workload.fresh_jobs()
            self._jobs_by_id = {job.job_id: job for job in self.jobs}
            if len(self._jobs_by_id) != len(self.jobs):
                raise ValueError("duplicate job ids in workload")

            dedicated = [job for job in self.jobs if job.is_dedicated]
            if dedicated and not scheduler.handles_dedicated:
                raise ValueError(
                    f"workload has {len(dedicated)} dedicated jobs but "
                    f"{scheduler.name} handles batch jobs only (use a -D variant)"
                )

            for ecc in workload.eccs:
                target = self._jobs_by_id.get(ecc.job_id)
                if target is None:
                    raise ValueError(f"ECC references unknown job {ecc.job_id}")
                if ecc.issue_time < target.submit:
                    # ECCs modify "a previously submitted job" (§III-C):
                    # a command cannot precede its job's submission.
                    raise ValueError(
                        f"ECC for job {ecc.job_id} issued at t={ecc.issue_time} "
                        f"before the job's submission at t={target.submit}"
                    )

            start = min((job.submit for job in self.jobs), default=0.0)
        #: Latest completion instant, maintained incrementally by
        #: ``_on_finish`` (the eager path used to re-scan the records).
        self._last_finish = start
        self.tracker = UtilizationTracker(start_time=start)
        self.queue_tracker = QueueTracker(start_time=start)
        self.machine = Machine(
            total=workload.machine_size,
            granularity=workload.granularity,
            tracker=self.tracker,
            # Pset failures need concrete placement; job-only faults
            # (and the fault-free path) skip the bookkeeping.
            track_placement=faults is not None and faults.node_faults_enabled,
        )
        for job in self.jobs:
            self.machine.validate_request(job.num)

        self.sim = Simulator(start_time=start)
        self._trace_out = Path(trace_out) if trace_out is not None else None
        # The live TraceWriter while run() executes.  Normally created
        # (and closed) by run() itself; checkpoint resume pre-attaches
        # a journal-resumed writer here so the continued run appends to
        # the interrupted file instead of truncating it.
        self._trace_writer = None
        self.trace = TraceLog(
            enabled=trace or self._trace_out is not None, store=trace
        )
        # Cached so hot handlers can skip building the kwargs payload
        # entirely on untraced runs (the common case in sweeps).
        self._trace_on = self.trace.enabled
        self._spans_out = Path(spans_out) if spans_out is not None else None
        self._spans_on = spans or self._spans_out is not None
        # Live SpanRecorder while run() executes with spans on (None
        # otherwise); hot paths read this attribute instead of the
        # module hook.  run() creates a fresh recorder per call so a
        # checkpoint-resumed process never mixes perf_counter origins.
        self._span_recorder: Optional[obs_spans.SpanRecorder] = None
        self._decisions = decisions
        # Decision-provenance dedup: job_id -> last reported reason.
        # Policies re-report on every pass while a stall persists, so
        # only reason *changes* become trace records; the entry clears
        # when the job starts or requeues (a new wait episode).
        self._last_pass_reason: Dict[int, str] = {}
        self.telemetry = obs_telemetry.Telemetry()
        self._depth_series = self.telemetry.series_handle("queue_depth")
        # Cycle bookkeeping accumulated in plain attributes and folded
        # into the telemetry registry at snapshot time: the counters'
        # final values are identical, but the per-cycle dict updates
        # disappear from the inner loop.
        self._n_cycles = 0
        self._n_cycles_elided = 0
        self._n_passes = 0
        self._sched_wall = 0.0
        self.batch_queue = BatchQueue()
        self.dedicated_queue = DedicatedQueue()
        self.active = ActiveList()
        self.records: List[JobRecord] = []
        self.cancelled_records: List[CancellationRecord] = []
        self.ecc_processor = ECCProcessor(
            max_eccs_per_job=max_eccs_per_job,
            allow_resource_eccs=allow_resource_eccs,
            machine_granularity=self.machine.granularity,
            machine_size=self.machine.total,
            # Running resizes exist only under malleable policies; every
            # other scheduler keeps the paper's rigid allocations
            # bit-for-bit (docs/malleability.md).
            allow_running_resize=scheduler.malleable,
        )
        self._dropped_eccs = 0
        # One context object serves every cycle; _run_cycle re-stamps
        # the clock and resets the free-capacity cache per cycle/pass.
        self._ctx = SchedulerContext(
            now=start,
            machine=self.machine,
            batch_queue=self.batch_queue,
            dedicated_queue=self.dedicated_queue,
            active=self.active,
        )
        if decisions:
            # Bound method: picklable since Python 3.5, so checkpoints
            # carry the wiring and resumes keep recording decisions.
            self._ctx.explain = self._note_pass_over
        self._cancelled_while_running: set[int] = set()
        self._finish_events: Dict[int, Event] = {}
        self._pending_cycle_time: Optional[float] = None
        # Cycle elision (docs/performance.md): fingerprint of the one
        # cycle proven side-effect free, plus a counter covering job
        # mutations the queue/active versions can't see (applied ECCs).
        self._elidable_token: Optional[tuple] = None
        self._jobs_version = 0
        # Snapshot of repro.core.memo.memo_enabled(); refreshed at the
        # top of run() so the env var is read once per run, not per
        # cycle.  Mirrored onto the context for policy-side hot paths
        # (dedicated_freeze).
        self._memo_on = memo_enabled()
        self._ctx.memo = self._memo_on
        # Stateless policies (the default) keep memo_token() as the
        # base-class constant; skipping the call on every cycle saves
        # two method invocations per scheduling event.
        self._static_memo_token = (
            type(scheduler).memo_token is Scheduler.memo_token
        )
        self.failed_records: List[FailureRecord] = []
        self._lost_work = 0.0
        self._lost_by_job: Dict[int, float] = {}
        self._requeue_count = 0
        self.faults: Optional[FaultInjector] = (
            FaultInjector(self, faults) if faults is not None and faults.enabled else None
        )
        self._wire_events()
        if self.faults is not None:
            self.faults.install()

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Checkpoint forward-compat: runners pickled by versions
        # without the spans/decision-provenance attributes must still
        # resume (repro.durable.checkpoint pickles the whole runner).
        self.__dict__.update(state)
        self.__dict__.setdefault("_spans_out", None)
        self.__dict__.setdefault("_spans_on", False)
        self.__dict__.setdefault("_span_recorder", None)
        self.__dict__.setdefault("_decisions", False)
        self.__dict__.setdefault("_last_pass_reason", {})

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _wire_events(self) -> None:
        if self._streaming:
            if self._stream_first is not None:
                self._admit_stream_item(self._stream_first)
                self._stream_first = None
                self._pump_stream()
            return
        for job in self.jobs:
            self.sim.schedule_at(
                job.submit,
                partial(self._on_arrival, job),
                priority=EventPriority.ARRIVAL,
                name="arrive",
            )
        for ecc in self.workload.eccs:
            self.sim.schedule_at(
                ecc.issue_time,
                partial(self._on_ecc, ecc),
                priority=EventPriority.ECC,
                name="ecc",
            )
        for job in self.jobs:
            if job.cancel_at is not None:
                # User cancellations are commands like ECCs and share
                # their same-instant slot (after finishes, before
                # arrivals of the next batch of work).
                self.sim.schedule_at(
                    job.cancel_at,
                    partial(self._on_cancel, job),
                    priority=EventPriority.ECC,
                    name="cancel",
                )

    # ------------------------------------------------------------------
    # Streaming ingestion (docs/scaling.md)
    # ------------------------------------------------------------------
    def _pump_stream(self) -> None:
        """Top the in-flight window back up to ``stream_window`` items.

        Each admitted item carries exactly one *anchor* event (the
        arrival or the command, at the item's stream time); auxiliary
        events it spawns (cancellations, dedicated-start timers) don't
        count against the window.  Anchors decrement the in-flight
        count when they fire and pump one replacement, so the event
        heap holds O(window + live jobs) entries regardless of the
        stream's length.
        """
        while self._stream_inflight < self._stream_window:
            item = next(self._stream_iter, None)
            if item is None:
                self._stream_exhausted = True
                return
            self._stream_pulled += 1
            self._admit_stream_item(item)

    def _admit_stream_item(self, item: StreamItem) -> None:
        """Validate one pulled item and schedule its anchor event.

        Jobs get the same admission checks the eager constructor runs
        up front (machine fit, dedicated-handling capability,
        duplicate ids — the last only against still-live jobs, since
        retired ids have been reclaimed; the :class:`JobStream`
        contract guarantees global uniqueness).  Commands trust the
        contract that their job was streamed first: a target missing
        from the live map is treated as retired when the command
        fires, not as an error here.
        """
        if isinstance(item, ECC):
            target = self._jobs_by_id.get(item.job_id)
            if target is not None and item.issue_time < target.submit:
                raise ValueError(
                    f"ECC for job {item.job_id} issued at t={item.issue_time} "
                    f"before the job's submission at t={target.submit}"
                )
            self.sim.schedule_at(
                item.issue_time,
                partial(self._on_stream_ecc, item),
                priority=EventPriority.ECC,
                name="ecc",
            )
        else:
            job = item
            if job.job_id in self._jobs_by_id:
                raise ValueError(f"duplicate job ids in workload ({job.job_id})")
            if job.is_dedicated and not self.scheduler.handles_dedicated:
                raise ValueError(
                    f"streamed dedicated job {job.job_id} but "
                    f"{self.scheduler.name} handles batch jobs only "
                    "(use a -D variant)"
                )
            self.machine.validate_request(job.num)
            self._jobs_by_id[job.job_id] = job
            self._jobs_admitted += 1
            # Offered-load accumulation over the *pristine* job, before
            # any ECC can touch it — the streaming replica of
            # Workload.offered_load() (same left-to-right summation).
            runtime = job.effective_runtime()
            end = job.submit + runtime
            if self._span_start is None:
                self._span_start = job.submit
            if end > self._span_end:
                self._span_end = end
            self._work_sum += job.num * runtime
            self.sim.schedule_at(
                job.submit,
                partial(self._on_stream_arrival, job),
                priority=EventPriority.ARRIVAL,
                name="arrive",
            )
            if job.cancel_at is not None:
                self.sim.schedule_at(
                    job.cancel_at,
                    partial(self._on_cancel, job),
                    priority=EventPriority.ECC,
                    name="cancel",
                )
        self._stream_inflight += 1

    def _on_stream_arrival(self, job: Job) -> None:
        self._stream_inflight -= 1
        if not self._stream_exhausted:
            self._pump_stream()
        self._on_arrival(job)

    def _on_stream_ecc(self, ecc: ECC) -> None:
        self._stream_inflight -= 1
        if not self._stream_exhausted:
            self._pump_stream()
        self._on_ecc(ecc)

    def work_remains(self) -> bool:
        """Whether any job may still need the machine.

        Gates the fault injector's failure renewal chain.  Streaming
        runs answer from the admitted/retired counters plus the stream
        frontier; eager runs scan the (fully materialized) job list.
        """
        if self._streaming:
            return (
                not self._stream_exhausted
                or self._jobs_retired < self._jobs_admitted
            )
        return any(
            job.state in (JobState.PENDING, JobState.QUEUED, JobState.RUNNING)
            for job in self.jobs
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _sample_queue_depth(self, now: float) -> None:
        """Telemetry: waiting-job count after any queue transition."""
        self._depth_series.add(
            now, len(self.batch_queue) + len(self.dedicated_queue)
        )

    def _on_arrival(self, job: Job) -> None:
        now = self.sim.now
        if self._trace_on:
            if job.is_dedicated:
                self.trace.record(
                    now, "arrive", job=job.job_id, num=job.num,
                    job_kind=job.kind.value, requested_start=job.requested_start,
                )
            else:
                self.trace.record(
                    now, "arrive", job=job.job_id, num=job.num, job_kind=job.kind.value
                )
        self.queue_tracker.on_enqueue(now, job.num * job.estimate)
        if job.is_dedicated:
            self.dedicated_queue.push(job)
            assert job.requested_start is not None
            if job.requested_start > now:
                self.sim.schedule_at(
                    job.requested_start,
                    self._request_cycle_now,
                    priority=EventPriority.TIMER,
                    name="ded-start",
                )
        else:
            self.batch_queue.push(job)
        self._sample_queue_depth(now)
        self._request_cycle()

    def _on_finish(self, job: Job) -> None:
        now = self.sim.now
        if self.faults is not None:
            self.faults.cancel_job_failure(job)
        self.active.remove(job)
        self.machine.release(job.job_id, time=now)
        job.finish_time = now
        job.state = JobState.FINISHED
        self._finish_events.pop(job.job_id, None)
        record = JobRecord.from_job(job)
        if job.job_id in self._cancelled_while_running:
            record = dataclasses.replace(record, cancelled=True)
        if now > self._last_finish:
            self._last_finish = now
        if self._online is not None:
            # Completion order matches records-append order, so the
            # aggregator's running sums replay the exact float
            # additions of the eager mean() — bitwise-equal results.
            self._online.observe(record)
        if self._retain_records:
            self.records.append(record)
        self._jobs_retired += 1
        if self._streaming:
            # Reclaim the Job object; late commands aimed at it resolve
            # to DROPPED_FINISHED from the id lookup failing instead.
            del self._jobs_by_id[job.job_id]
        if self._trace_on:
            self.trace.record(now, "finish", job=job.job_id, num=job.num)
        self._request_cycle()

    def _on_cancel(self, job: Job) -> None:
        """SWF status-5 semantics: withdraw a queued job; terminate a
        running one at the cancellation instant."""
        now = self.sim.now
        if job.state is JobState.QUEUED:
            if job.is_dedicated and any(
                j.job_id == job.job_id for j in self.dedicated_queue
            ):
                self.dedicated_queue.remove(job)
            else:
                self.batch_queue.remove(job)
            job.state = JobState.CANCELLED
            self.queue_tracker.on_dequeue(now, job.num * job.estimate)
            self.cancelled_records.append(
                CancellationRecord(
                    job_id=job.job_id,
                    kind=job.kind,
                    num=job.num,
                    submit=job.submit,
                    cancelled_at=now,
                )
            )
            # Terminal for work_remains(); the Job object stays in
            # _jobs_by_id so a late ECC still finds its real state
            # (cancelled jobs are rare enough not to threaten memory).
            self._jobs_retired += 1
            if self._trace_on:
                self.trace.record(now, "cancel", job=job.job_id, num=job.num, was="queued")
            self._sample_queue_depth(now)
            self._request_cycle()
        elif job.state is JobState.RUNNING:
            if self._trace_on:
                self.trace.record(now, "cancel", job=job.job_id, num=job.num, was="running")
            job.killed = True
            self._cancelled_while_running.add(job.job_id)
            self._reschedule_finish(job, now)
        # PENDING cannot happen (cancel_at >= submit is validated) and
        # FINISHED cancellations are no-ops.

    def _on_ecc(self, ecc: ECC) -> None:
        now = self.sim.now
        self.telemetry.count("ecc_commands")
        if not self.scheduler.elastic:
            # Non-elastic policies have no ECC processor appended; the
            # command is silently dropped (recorded for diagnostics).
            self._dropped_eccs += 1
            if self._trace_on:
                self.trace.record(now, "ecc-dropped", job=ecc.job_id, ecc_kind=ecc.kind.value)
            return
        job = self._jobs_by_id.get(ecc.job_id)
        if job is None:
            if self._streaming:
                # Streaming retires finished jobs from the live map, so
                # a command outliving its job lands here; mirror the
                # eager path's ECCProcessor verdict for FINISHED jobs.
                self.ecc_processor.stats[ECCOutcome.DROPPED_FINISHED] += 1
                if self._trace_on:
                    self.trace.record(
                        now,
                        "ecc",
                        job=ecc.job_id,
                        ecc_kind=ecc.kind.value,
                        amount=ecc.amount,
                        outcome=ECCOutcome.DROPPED_FINISHED.value,
                    )
                return
            raise SimulationError(f"ECC references unknown job {ecc.job_id}")
        estimate_before = job.estimate
        num_before = job.num
        recorder = self._span_recorder
        if recorder is None:
            result = self.ecc_processor.apply(ecc, job, now, free=self._free_now())
        else:
            span_token = recorder.begin("ecc_apply")
            try:
                result = self.ecc_processor.apply(ecc, job, now, free=self._free_now())
            finally:
                recorder.end(span_token)
        if result.old_num is None and job.num != num_before:
            # An EP/RP landed on a *queued* job (the processor mutates
            # job.num in place): keep the batch queue's size index
            # honest.  Tolerant no-op for dedicated/pending jobs.
            self.batch_queue.note_resize(job)
        if result.old_num is not None:
            # A running job was resized: mirror the new size into the
            # machine allocation and the active-list aggregate before
            # anything else reads free capacity.
            self.machine.resize(job.job_id, job.num, time=now)
            self.active.note_resize(job.num - result.old_num)
        if result.outcome.applied and job.state is not JobState.RUNNING and job.state is not JobState.FINISHED:
            # Queued/pending work changed: keep the backlog integral exact.
            self.queue_tracker.on_work_changed(
                now, job.num * (job.estimate - estimate_before)
            )
        if self._trace_on:
            self.trace.record(
                now,
                "ecc",
                job=ecc.job_id,
                ecc_kind=ecc.kind.value,
                amount=ecc.amount,
                outcome=result.outcome.value,
                # Post-command size: lets trace analytics map EP/RP
                # commands to allocation deltas (repro trace --check).
                num=job.num,
            )
        if result.outcome is ECCOutcome.APPLIED_RUNNING:
            assert result.new_kill_by is not None
            self._reschedule_finish(job, result.new_kill_by)
        elif result.outcome is ECCOutcome.TERMINATED_JOB:
            self._reschedule_finish(job, now)
        if result.outcome.applied:
            self._jobs_version += 1
            if job.state is JobState.RUNNING:
                self.active.resort()
            self._request_cycle()

    def _free_now(self) -> int:
        """Free processors at this instant (the context's ``free``,
        computed fresh — the cached one may predate this event)."""
        machine = self.machine
        return machine.total - machine._offline_procs - self.active.total_used

    def _reschedule_finish(self, job: Job, when: float) -> None:
        old = self._finish_events.pop(job.job_id, None)
        if old is not None:
            old.cancel()
        self._finish_events[job.job_id] = self.sim.schedule_at(
            when,
            partial(self._on_finish, job),
            priority=EventPriority.FINISH,
            name="finish",
        )

    # ------------------------------------------------------------------
    # Failure recovery (docs/resilience.md)
    # ------------------------------------------------------------------
    def _fail_running_job(self, job: Job, *, release: bool, reason: str) -> None:
        """Terminate a running job's attempt; requeue or fail it.

        Args:
            job: The victim (must be RUNNING).
            release: Whether the machine allocation still needs
                releasing (pset eviction already released it).
            reason: ``"crash"`` or ``"evicted"`` (trace/records).

        The attempt's partial execution is charged to ``lost_work``,
        minus any checkpoint credit: with ``retry.checkpoint`` under an
        elastic policy the elapsed work is preserved as a synthetic RT
        command through the ECC processor, shrinking the restart's
        runtime (and honouring the per-job ECC budget).  The job then
        either re-enters the batch queue after the policy's backoff —
        at the tail, with a fresh effective arrival — or, once the
        retry budget is exhausted, fails permanently into a
        :class:`FailureRecord`.
        """
        now = self.sim.now
        assert job.state is JobState.RUNNING and job.start_time is not None, job
        pending = self._finish_events.pop(job.job_id, None)
        if pending is not None:
            pending.cancel()
        if self.faults is not None:
            self.faults.cancel_job_failure(job)
        self.active.remove(job)
        if release:
            self.machine.release(job.job_id, time=now)
        elapsed = now - job.start_time
        job.requeues += 1
        attempt = job.requeues
        job.state = JobState.PENDING
        job.start_time = None
        job.killed = False
        preserved = 0.0
        if self.retry.checkpoint and self.scheduler.elastic and elapsed > 0:
            estimate_before = job.estimate
            result = self.ecc_processor.apply(
                ECC(
                    job_id=job.job_id,
                    issue_time=now,
                    kind=ECCKind.REDUCE_TIME,
                    amount=elapsed,
                ),
                job,
                now,
            )
            if result.outcome.applied:
                preserved = estimate_before - job.estimate
        lost = job.num * max(0.0, elapsed - preserved)
        self._lost_work += lost
        self._lost_by_job[job.job_id] = self._lost_by_job.get(job.job_id, 0.0) + lost
        if self._trace_on:
            self.trace.record(
                now, "job-fail", job=job.job_id, num=job.num,
                reason=reason, attempt=attempt, lost=lost,
            )
        permanent = attempt > self.retry.max_retries
        if permanent:
            job.state = JobState.FAILED
            job.finish_time = now
            self.failed_records.append(
                FailureRecord(
                    job_id=job.job_id,
                    kind=job.kind,
                    num=job.num,
                    submit=job.submit,
                    failed_at=now,
                    attempts=attempt,
                    lost_work=self._lost_by_job[job.job_id],
                    reason=reason,
                )
            )
            if self._trace_on:
                self.trace.record(now, "job-failed-permanently", job=job.job_id, attempts=attempt)
            # Terminal for work_remains(); like cancelled jobs, the
            # object stays in _jobs_by_id for late-ECC state checks.
            self._jobs_retired += 1
        else:
            if self._decisions:
                # The job is off the queue waiting out its backoff —
                # the one pass-over the policies never see.
                self._note_pass_over(job, REASON_FAULT_BACKOFF)
            self.sim.schedule_in(
                self.retry.delay(attempt),
                partial(self._on_requeue, job),
                priority=EventPriority.ARRIVAL,
                name="requeue",
            )
        self.scheduler.on_job_failure(job, now, permanent)
        self._request_cycle()

    def _on_requeue(self, job: Job) -> None:
        """Backoff expired: the failed job rejoins the batch queue."""
        now = self.sim.now
        if self._decisions:
            # A new wait episode: report the next pass-over afresh.
            self._last_pass_reason.pop(job.job_id, None)
        self.batch_queue.push_requeue(job, now)
        self.queue_tracker.on_enqueue(now, job.num * job.estimate)
        self._requeue_count += 1
        if self._trace_on:
            self.trace.record(now, "requeue", job=job.job_id, attempt=job.requeues)
        self._sample_queue_depth(now)
        self._request_cycle()

    # ------------------------------------------------------------------
    # Decision provenance (docs/observability.md)
    # ------------------------------------------------------------------
    def _note_pass_over(self, job: Job, reason: str) -> None:
        """Record why ``job`` was passed over (the ``ctx.explain`` sink).

        Wired onto the context only when ``decisions=True``, so the
        default path never reaches here.  Deduplicated on the job's
        *last* reason: policies re-report on every pass while a stall
        persists, so only changes land as ``decision`` records in the
        trace stream (``repro explain --job N`` renders them).
        """
        if self._last_pass_reason.get(job.job_id) == reason:
            return
        self._last_pass_reason[job.job_id] = reason
        self.telemetry.count("decisions_recorded")
        if self._trace_on:
            self.trace.record(
                self.sim.now, "decision", job=job.job_id, reason=reason, num=job.num
            )

    # ------------------------------------------------------------------
    # Scheduling cycle
    # ------------------------------------------------------------------
    def _request_cycle_now(self) -> None:
        """Timer handler: a rigid dedicated start time was reached."""
        self._run_cycle()

    def _request_cycle(self) -> None:
        """Schedule one cycle at ``now`` (deduplicated per instant)."""
        now = self.sim.now
        if self._pending_cycle_time == now:
            return
        self._pending_cycle_time = now
        self.sim.schedule_at(
            now,
            self._run_cycle,
            priority=EventPriority.SCHEDULE,
            name="cycle",
        )

    def _run_cycle(self) -> None:
        now = self.sim.now
        if self._pending_cycle_time == now:
            self._pending_cycle_time = None
        token: Optional[tuple] = None
        batch_queue = self.batch_queue
        scheduler = self.scheduler
        if self._memo_on:
            # O(1) fingerprint of the decision-relevant state at ``now``,
            # built inline because this runs on every scheduling event.
            # It covers every input a policy can read: the clock; the
            # queue and active-list mutation versions (membership,
            # order, kill-by times); the job-mutation counter (applied
            # ECCs); the machine's used/offline counters, which with
            # ``total`` fixed determine free and available capacity
            # (allocations, faults and repairs all move them); the
            # batch head's skip count, the one field policies
            # themselves mutate; and the policy's own
            # :meth:`~repro.core.base.Scheduler.memo_token`, skipped
            # for stateless policies that keep the base-class constant.
            machine = self.machine
            head = batch_queue.head
            token = (
                now,
                batch_queue.version,
                self.dedicated_queue.version,
                self.active.version,
                self._jobs_version,
                machine._used,
                machine._offline_procs,
                None if head is None else (head.job_id, head.scount),
                None if self._static_memo_token else scheduler.memo_token(),
            )
            if token == self._elidable_token:
                # This exact state already produced an empty, mutation-
                # free first pass at this instant; re-running the policy
                # would be the identity.
                self._n_cycles_elided += 1
                return
        self._n_cycles += 1
        started = perf_counter()
        recorder = self._span_recorder
        # begin_at/end_at reuse this method's own clock reads so the
        # span costs the hot cycle no extra perf_counter() calls.
        span_token = (
            None if recorder is None else recorder.begin_at("schedule_cycle", started)
        )
        ctx = self._ctx
        ctx.now = now
        ctx._free = None  # invalidate_free(), inlined for the hot loop
        pass_index = 0
        try:
            for pass_index in range(MAX_CYCLE_PASSES):
                ctx.allow_scount_increment = pass_index == 0
                decision = scheduler.cycle(ctx)
                if not (decision.starts or decision.promotions or decision.commands):
                    if pass_index == 0 and token is not None:
                        # A policy touches nothing but the batch head's
                        # scount and its own internal state during an
                        # empty pass (queues, machine and clock are
                        # runner-owned), so only those two fingerprint
                        # components need re-checking.
                        head = batch_queue.head
                        if token[7] == (
                            None if head is None else (head.job_id, head.scount)
                        ) and token[8] == (
                            None
                            if self._static_memo_token
                            else scheduler.memo_token()
                        ):
                            # Empty on the *first* pass (so scount
                            # rules matched a fresh cycle) and nothing
                            # mutated: a repeat at this instant is
                            # safe to skip.
                            self._elidable_token = token
                    return
                self._apply(decision)
                ctx._free = None
        finally:
            self._n_passes += pass_index + 1
            ended = perf_counter()
            self._sched_wall += ended - started
            if span_token is not None:
                recorder.end_at(span_token, ended)
        raise SimulationError(
            f"scheduler {self.scheduler.name} did not reach a fix-point "
            f"within {MAX_CYCLE_PASSES} passes at t={now}"
        )

    def _apply_commands(self, commands: List[ECC], now: float) -> None:
        """Apply a malleable policy's synthetic shrink/expand commands.

        Each command goes through the run's ECC processor with
        ``scheduler_initiated=True`` (docs/malleability.md), then the
        machine allocation, active-list aggregate and finish event are
        patched from the result — the same bookkeeping the workload-ECC
        path performs, factored here because commands arrive in batches
        within a scheduling pass.  Policies only emit commands they
        validated against the snapshot they decided on, so a rejection
        here is a policy/runner disagreement and fails loudly.
        """
        trace_on = self._trace_on
        telemetry = self.telemetry
        for ecc in commands:
            job = self._jobs_by_id.get(ecc.job_id)
            if job is None or job.state is not JobState.RUNNING:
                raise SimulationError(
                    f"{self.scheduler.name} issued a command for job "
                    f"{ecc.job_id} which is not running at t={now}"
                )
            num_before = job.num
            old_kill_by = job.kill_by()
            result = self.ecc_processor.apply(
                ecc, job, now, free=self._free_now(), scheduler_initiated=True
            )
            if not result.outcome.applied or result.old_num is None:
                raise SimulationError(
                    f"{self.scheduler.name}'s {ecc.kind.value} command for "
                    f"running job {ecc.job_id} came back "
                    f"{result.outcome.value} at t={now}; malleable policies "
                    "must pre-validate their commands"
                )
            self.machine.resize(job.job_id, job.num, time=now)
            self.active.note_resize(job.num - num_before)
            if result.outcome is ECCOutcome.TERMINATED_JOB:
                self._reschedule_finish(job, now)
            else:
                assert result.new_kill_by is not None
                self._reschedule_finish(job, result.new_kill_by)
            new_kill_by = now if result.new_kill_by is None else result.new_kill_by
            if job.num < num_before:
                telemetry.count("malleable_shrinks")
                # Node-seconds handed back now, priced at the *donor's*
                # pre-shrink horizon (int-rounded; docs/observability.md).
                telemetry.count(
                    "malleable_node_s_reclaimed",
                    int(round((num_before - job.num) * (old_kill_by - now))),
                )
                telemetry.count("malleable_procs_reclaimed", num_before - job.num)
            else:
                telemetry.count("malleable_expands")
                telemetry.count(
                    "malleable_node_s_soaked",
                    int(round((job.num - num_before) * (new_kill_by - now))),
                )
                telemetry.count("malleable_procs_soaked", job.num - num_before)
            self._jobs_version += 1
            if trace_on:
                self.trace.record(
                    now,
                    "ecc",
                    job=ecc.job_id,
                    ecc_kind=ecc.kind.value,
                    amount=ecc.amount,
                    outcome=result.outcome.value,
                    num=job.num,
                    # Distinguishes scheduler-initiated commands from
                    # workload ECCs in trace analytics.
                    origin="scheduler",
                )
        # Kill-by times moved; restore ordering before any start
        # bisects into the list.
        self.active.resort()

    def _apply(self, decision: CycleDecision) -> None:
        now = self.sim.now
        trace_on = self._trace_on
        if decision.commands:
            recorder = self._span_recorder
            if recorder is None:
                self._apply_commands(decision.commands, now)
            else:
                span_token = recorder.begin("ecc_apply")
                try:
                    self._apply_commands(decision.commands, now)
                finally:
                    recorder.end(span_token)
        for job in decision.promotions:
            # Algorithm 3: the due dedicated head becomes the head of
            # the batch queue (scount was set by the policy).
            self.dedicated_queue.remove(job)
            self.batch_queue.push_head(job)
            if trace_on:
                self.trace.record(now, "promote", job=job.job_id, scount=job.scount)
        for job in decision.starts:
            if self._decisions:
                # The stall ended; a later one must re-report.
                self._last_pass_reason.pop(job.job_id, None)
            self.batch_queue.remove(job)
            self.queue_tracker.on_dequeue(now, job.num * job.estimate)
            self.machine.allocate(job.job_id, job.num, time=now)
            job.start_time = now
            job.killed = job.actual is not None and job.actual > job.estimate
            self.active.add(job)
            self._reschedule_finish(job, now + job.effective_runtime())
            if self.faults is not None:
                self.faults.on_job_start(job)
            if trace_on:
                self.trace.record(now, "start", job=job.job_id, num=job.num)
        if decision.starts:
            self._sample_queue_depth(now)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        *,
        checkpoint: Optional[object] = None,
    ) -> RunMetrics:
        """Run to completion and return the aggregate metrics.

        Args:
            until: Optional inclusive horizon (engine semantics).
            checkpoint: Optional
                :class:`~repro.durable.checkpoint.CheckpointConfig`
                (or a checkpoint directory path) enabling periodic
                crash-consistent checkpoints plus a final checkpoint
                on SIGINT/SIGTERM (docs/resilience.md).  ``None``
                (default) runs the plain fast drain loop —
                checkpointing off costs nothing.

        Raises:
            SimulationError: when events drain with jobs still waiting
                (a policy starved them — always a bug).
            CheckpointInterrupt: when a shutdown signal arrived and the
                final checkpoint was written (resume from it later).
        """
        writer = self._trace_writer
        if writer is None and self._trace_out is not None:
            from repro.obs.trace_io import TraceWriter

            writer = TraceWriter(self._trace_out, meta=self._trace_meta())
            self._trace_writer = writer
        if writer is not None:
            self.trace.sink = writer.write
        # Each run starts with cold DP caches so the dp_cache_* /
        # dp_invocations counters are a pure function of the run —
        # identical serial, parallel, or repeated in one process.
        clear_caches()
        self._memo_on = memo_enabled()
        self._ctx.memo = self._memo_on
        # Spans get a fresh recorder per run() call: segments of a
        # split run (run(until=...)) each fold their own totals, and a
        # checkpoint-resumed process profiles its own segment only —
        # decision records, not spans, are what resume reproduces
        # bitwise.
        # Timeline (per-span Chrome slices) only when an export was
        # requested; aggregate-only mode is the cheap default.
        recorder = (
            obs_spans.SpanRecorder(timeline=self._spans_out is not None)
            if self._spans_on
            else None
        )
        self._span_recorder = recorder
        try:
            # The active registries let instrumented library code
            # (repro.core.dp, repro.core.easy, the engine loop) report
            # without plumbing handles through every policy signature.
            with ExitStack() as stack:
                stack.enter_context(obs_telemetry.activated(self.telemetry))
                if recorder is not None:
                    stack.enter_context(obs_spans.activated(recorder))
                with self.telemetry.timeit("run_wall_s"):
                    if checkpoint is None:
                        self.sim.run(until=until)
                    else:
                        from repro.durable.checkpoint import (
                            CheckpointConfig,
                            drive_checkpointed,
                        )

                        drive_checkpointed(
                            self, CheckpointConfig.coerce(checkpoint), until=until
                        )
                self._fold_dp_cache_telemetry()
        finally:
            if recorder is not None:
                self._span_recorder = None
                recorder.fold_into(self.telemetry)
                if self._spans_out is not None:
                    recorder.write_chrome_trace(self._spans_out)
            if writer is not None:
                self.trace.sink = None
                self._trace_writer = None
                writer.close()
        if self._streaming:
            # The live map holds queued/running jobs plus the (rare)
            # cancelled/failed ones kept for late-ECC lookups; the
            # counters tell them apart without a full-workload list.
            leftover = self._jobs_admitted - self._jobs_retired
            if leftover and until is None:
                ids = [
                    job_id
                    for job_id, job in self._jobs_by_id.items()
                    if job.state
                    not in (JobState.FINISHED, JobState.CANCELLED, JobState.FAILED)
                ][:10]
                raise SimulationError(
                    f"{self.scheduler.name} left {leftover} jobs unfinished "
                    f"(first ids: {ids}); starvation or wiring bug"
                )
            return self._metrics()
        unfinished = [
            job
            for job in self.jobs
            if job.state
            not in (JobState.FINISHED, JobState.CANCELLED, JobState.FAILED)
        ]
        if unfinished and until is None:
            ids = [job.job_id for job in unfinished[:10]]
            raise SimulationError(
                f"{self.scheduler.name} left {len(unfinished)} jobs unfinished "
                f"(first ids: {ids}); starvation or wiring bug"
            )
        return self._metrics()

    def _trace_meta(self) -> Dict[str, object]:
        """Header metadata for a streamed trace file."""
        from repro import __version__

        if self._streaming:
            hint = self.workload.n_jobs_hint
            return {
                "algorithm": self.scheduler.name,
                "machine_size": self.machine.total,
                "granularity": self.machine.granularity,
                # Streams don't know their length up front; -1 marks
                # "unknown" so readers never mistake it for an empty run.
                "n_jobs": hint if hint is not None else -1,
                "n_eccs": -1,
                "streaming": True,
                "faulty": self.faults is not None,
                "repro_version": __version__,
            }
        return {
            "algorithm": self.scheduler.name,
            "machine_size": self.machine.total,
            "granularity": self.machine.granularity,
            "n_jobs": len(self.jobs),
            "n_eccs": len(self.workload.eccs),
            "faulty": self.faults is not None,
            "repro_version": __version__,
        }

    def _fold_dp_cache_telemetry(self) -> None:
        """Fold the DP caches' probe counters into the registry.

        :func:`repro.core.memo.lookup` counts probes on the caches
        instead of bumping the registry per call; this folds (and
        resets) those counts so repeated ``run(until=...)`` segments
        accumulate exactly like the old per-probe counting did.
        """
        telemetry = self.telemetry
        hits = BASIC_CACHE.hits + RESERVATION_CACHE.hits
        misses = BASIC_CACHE.misses + RESERVATION_CACHE.misses
        if hits:
            telemetry.count("dp_cache_hits", hits)
        if misses:
            telemetry.count("dp_cache_misses", misses)
        BASIC_CACHE.hits = BASIC_CACHE.misses = 0
        RESERVATION_CACHE.hits = RESERVATION_CACHE.misses = 0

    def _fold_cycle_telemetry(self) -> None:
        """Fold the batched cycle counters into the registry.

        The attributes are reset so repeated ``run(until=...)`` /
        ``_metrics()`` calls accumulate instead of double-counting;
        zero counters stay absent, exactly as with per-cycle counting.
        """
        telemetry = self.telemetry
        if self._n_cycles:
            telemetry.count("schedule_cycles", self._n_cycles)
        if self._n_cycles_elided:
            telemetry.count("cycles_elided", self._n_cycles_elided)
        if self._n_passes:
            telemetry.count("schedule_passes", self._n_passes)
        if self._sched_wall:
            telemetry.add_time("schedule_wall_s", self._sched_wall)
        self._n_cycles = self._n_cycles_elided = self._n_passes = 0
        self._sched_wall = 0.0

    def _offered_load(self) -> float:
        """The paper's Load of the input workload.

        Streaming runs reproduce :func:`repro.workload.load.offered_load`
        from the scalars accumulated at admission (pristine jobs, same
        summation order — bitwise-equal to the eager value); eager runs
        delegate to the workload object.
        """
        if not self._streaming:
            return self.workload.offered_load()
        if self._span_start is None:
            return 0.0
        span = self._span_end - self._span_start
        if span <= 0:
            return 0.0
        return self._work_sum / (self.machine.total * span)

    def _fold_sampling_telemetry(self) -> None:
        """Surface bounded-buffer drop counts as telemetry counters.

        Written as absolute values (not increments) so repeated
        ``run(until=...)`` / ``_metrics()`` calls stay idempotent;
        zero counts stay absent like every other counter.  The
        queue-depth series reports its own drops via the registry
        (``queue_depth_samples_dropped``).
        """
        counters = self.telemetry.counters
        dropped = self.tracker.samples_dropped
        if dropped:
            counters["utilization_samples_dropped"] = dropped
        dropped = self.queue_tracker.samples_dropped
        if dropped:
            counters["queue_length_samples_dropped"] = dropped

    def _metrics(self) -> RunMetrics:
        self._fold_cycle_telemetry()
        self._fold_sampling_telemetry()
        last_finish = self._last_finish
        ecc_stats = {
            outcome.value: count
            for outcome, count in self.ecc_processor.stats.items()
            if count
        }
        if self._dropped_eccs:
            ecc_stats["dropped-not-elastic"] = self._dropped_eccs
        utilization = self.tracker.mean_utilization(
            self.machine.total, until=last_finish
        )
        makespan = last_finish - self.tracker.start_time
        online_summary = None
        if self._online is not None:
            online_summary = self._online.summary(
                utilization=utilization, makespan=makespan
            )
        return RunMetrics(
            algorithm=self.scheduler.name,
            machine_size=self.machine.total,
            records=list(self.records),
            utilization=utilization,
            makespan=makespan,
            offered_load=self._offered_load(),
            ecc_stats=ecc_stats,
            events_processed=self.sim.processed_events,
            queue=self.queue_tracker.summary(until=last_finish),
            cancelled_records=list(self.cancelled_records),
            failed_records=list(self.failed_records),
            lost_work=self._lost_work,
            requeue_count=self._requeue_count,
            degraded_time=self.machine.degraded_time(until=last_finish),
            node_failures=self.faults.node_failures if self.faults else 0,
            telemetry=self.telemetry.snapshot(),
            online=online_summary,
        )


def simulate(
    workload: Optional[Union[Workload, JobStream]] = None,
    scheduler: Optional[Scheduler] = None,
    *,
    trace: bool = False,
    trace_out: Optional[Union[str, Path]] = None,
    spans: bool = False,
    spans_out: Optional[Union[str, Path]] = None,
    decisions: bool = False,
    max_eccs_per_job: Optional[int] = None,
    faults: Optional[FaultConfig] = None,
    retry: Optional[RetryPolicy] = None,
    online: bool = False,
    retain_records: bool = True,
    checkpoint: Optional[object] = None,
    resume_from: Optional[Union[str, Path]] = None,
) -> RunMetrics:
    """One-shot convenience wrapper around :class:`SimulationRunner`.

    Args:
        spans: Record phase spans into the telemetry snapshot
            (:mod:`repro.obs.spans`).
        spans_out: Write a Chrome trace-event JSON file of the spans
            (implies ``spans=True``).
        decisions: Emit per-job ``decision`` (pass-over provenance)
            records into the trace stream.
        checkpoint: Enable periodic crash-consistent checkpoints — a
            :class:`~repro.durable.checkpoint.CheckpointConfig` or a
            checkpoint directory path (docs/resilience.md).
        resume_from: Restore the runner from a checkpoint file (or the
            newest usable checkpoint in a directory) and run it to
            completion — bitwise-identical to the uninterrupted run.
            Mutually exclusive with ``workload``/``scheduler`` (the
            checkpoint carries the full simulation state; the other
            keyword arguments except ``checkpoint`` are ignored).
    """
    if resume_from is not None:
        if workload is not None or scheduler is not None:
            raise ValueError(
                "resume_from rebuilds the runner from the checkpoint; "
                "don't pass workload/scheduler as well"
            )
        from repro.durable.checkpoint import resume

        return resume(resume_from, checkpoint=checkpoint)
    if workload is None or scheduler is None:
        raise TypeError("simulate() needs a workload and a scheduler (or resume_from=)")
    return SimulationRunner(
        workload,
        scheduler,
        trace=trace,
        trace_out=trace_out,
        spans=spans,
        spans_out=spans_out,
        decisions=decisions,
        max_eccs_per_job=max_eccs_per_job,
        faults=faults,
        retry=retry,
        online=online,
        retain_records=retain_records,
    ).run(checkpoint=checkpoint)


__all__ = ["MAX_CYCLE_PASSES", "SimulationRunner", "simulate"]
