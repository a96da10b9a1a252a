"""Event-driven simulation of one (workload, scheduler) pair.

The runner owns the clock, machine, queues, active list and trace;
it is the only thing that changes them.  The policy, the ECC
processor and the fault injector only decide and return their answer.
Event semantics (see :class:`repro.sim.events.EventPriority` for
same-instant ordering):

- *arrival*: the job joins ``W^b`` (batch) or ``W^d`` (dedicated, plus
  a timer at its rigid requested start),
- *finish*: the attempt ends (one path, shared with failures),
  processors release, the job's record is frozen,
- *ECC*: the elastic control queue hands the command to the ECC
  processor (elastic policies only) and one path mirrors the result,
  as it does for a malleable policy's commands; a changed kill-by time
  reschedules the finish event — the core of runtime elasticity,
- *cycle*: the policy runs to fix-point — every pass's decision is
  applied (malleability commands, then promotions, then starts) and
  the policy re-invoked until it makes none, with
  ``allow_scount_increment`` true only on the first pass so a skipped
  head counts once per scheduling cycle,
- *faults*: pset failures and repairs and job crashes, drawn by the
  :class:`~repro.faults.injector.FaultInjector`, end attempts and
  requeue jobs after the retry backoff (docs/resilience.md).

Every input arrives through one windowed feed: a :class:`Workload` and
a :class:`~repro.workload.streaming.JobStream` are admitted alike, a
whole instant at a time, so same-instant order comes from the input
and the priority slots — never from how the workload was fed.

With ``trace_out``, every state transition is written as a
``(time, kind, data)`` record to the run's
:class:`~repro.obs.trace_io.TraceWriter`, the one copy of the trace;
tests assert event-level invariants on the file.
"""

from __future__ import annotations

from contextlib import ExitStack
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cluster.accounting import UtilizationTracker, utilization_of
from repro.cluster.machine import Machine
from repro.core.base import (
    REASON_FAULT_BACKOFF,
    CycleDecision,
    Scheduler,
    SchedulerContext,
)
from repro.core.elastic import ECCOutcome, ECCProcessor, ECCResult
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultConfig, RetryPolicy
from repro.metrics.online import OnlineAggregator
from repro.metrics.queue_stats import QueueSummary, QueueTracker
from repro.metrics.records import (
    CancellationRecord,
    FailureRecord,
    JobRecord,
    RunMetrics,
)
from repro.obs import spans as obs_spans
from repro.obs import telemetry as obs_telemetry
from repro.obs.trace_io import TraceWriter
from repro.queues.active_list import ActiveList
from repro.queues.batch_queue import BatchQueue
from repro.queues.dedicated_queue import DedicatedQueue
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event, EventPriority
from repro.workload.ecc import ECC, ECCKind
from repro.workload.generator import Workload
from repro.workload.job import Job, JobState
from repro.workload.load import load_from
from repro.workload.streaming import JobStream, StreamItem
from repro.workload.validate import workload_errors

#: Hard cap on fix-point passes within one scheduling cycle; real
#: cycles converge in a handful of passes, so hitting this means a
#: policy is oscillating.
MAX_CYCLE_PASSES = 10_000

#: Upcoming feed items kept scheduled ahead of the clock.  Items at one
#: instant are admitted together and own their
#: :class:`~repro.sim.events.EventPriority` slots, so the window bounds
#: memory but never changes a result.
STREAM_WINDOW = 64


def _check_workload(workload: Workload, scheduler: Scheduler) -> None:
    """Reject a materialized workload the run could never complete.

    A :class:`Workload` is checked whole before its first item is
    admitted: the first of its hard errors
    (:func:`~repro.workload.validate.workload_errors` — duplicate ids,
    commands aimed at unknown jobs or issued before their job's
    submission, requests the machine can never satisfy), then dedicated
    jobs under a batch-only policy.
    """
    for error in workload_errors(workload):
        raise ValueError(error.message)
    dedicated = sum(job.is_dedicated for job in workload.jobs)
    if dedicated and not scheduler.handles_dedicated:
        raise ValueError(
            f"workload has {dedicated} dedicated jobs but "
            f"{scheduler.name} handles batch jobs only (use a -D variant)"
        )


class SimulationRunner:
    """Simulates ``workload`` under ``scheduler`` on its machine.

    Args:
        workload: The input workload.  Every run streams its feed:
            items are admitted as virtual time advances, holding only
            :data:`STREAM_WINDOW` upcoming items plus the live jobs in
            memory (docs/scaling.md).  A :class:`Workload` is checked
            whole at construction and copied job by job as it is
            pulled, so one object serves every run of a sweep; a
            :class:`~repro.workload.streaming.JobStream` is
            single-use, so build a fresh stream per run.
        online: Also run the P² estimator of the p95 wait and attach
            an :class:`~repro.metrics.online.OnlineSummary` as
            ``metrics.online``.  Every run folds its completions into
            :class:`~repro.metrics.online.OnlineAggregator` sums either
            way; this only adds the (approximate) quantile.
        retain_records: Keep the per-job :class:`JobRecord` list
            (default).  ``False`` builds no record, so metrics memory
            stays flat at archive scale; every ``RunMetrics`` mean is
            kept either way.
        scheduler: The policy to drive.
        trace_out: Stream every trace record to this path as JSONL
            (schema ``repro.trace/1``; docs/observability.md).
            Records go straight to disk, so memory stays flat; read
            them back with :func:`repro.obs.trace_io.read_trace`.  A
            run split over several :meth:`run` calls continues the
            same file.  Tracing never changes scheduling — metrics
            are identical with and without it.
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
    ) -> None:
        self.scheduler = scheduler
        self.retry = retry if retry is not None else RetryPolicy()
        self._retain_records = retain_records
        self._online = online
        # The one fold of the completion metrics (repro.metrics.online).
        self._completions = OnlineAggregator(p95=online)
        # Feed bookkeeping: the admitted/retired counters answer
        # work_remains() and the leftover check without a full job
        # list, and the span/work accumulators reproduce
        # Workload.offered_load() from pristine admissions.
        self._jobs_admitted = 0
        self._jobs_retired = 0
        self._span_start: Optional[float] = None
        self._span_end = 0.0
        self._work_sum = 0.0
        self._jobs_by_id: Dict[int, Job] = {}
        if isinstance(workload, Workload):
            _check_workload(workload, scheduler)
            # What a checkpoint resume re-iterates to rebuild the feed.
            self._replay: Optional[Iterable[StreamItem]] = workload
            self._feed_meta: Dict[str, object] = {
                "n_jobs": len(workload.jobs),
                "n_eccs": len(workload.eccs),
            }
        else:
            hint = workload.n_jobs_hint
            self._replay = workload.spec
            # Streams don't know their length up front; -1 marks
            # "unknown" so readers never mistake it for an empty run.
            self._feed_meta = {
                "n_jobs": hint if hint is not None else -1,
                "n_eccs": -1,
                "streaming": True,
            }
        self._feed: Optional[Iterator[StreamItem]] = iter(workload)
        # Anchor events (arrivals and commands) scheduled but not fired.
        self._feed_inflight = 0
        # One item of lookahead (None once the feed is drained) lets
        # admission take a whole instant at a time.  A checkpoint
        # persists the pull count; resume re-iterates ``_replay`` and
        # fast-forwards exactly this many items
        # (repro.durable.checkpoint).
        first = next(self._feed, None)
        self._feed_pulled = 0 if first is None else 1
        self._feed_next: Optional[StreamItem] = first
        if first is None and not isinstance(workload, Workload):
            raise ValueError(
                "job stream yielded no items — streams are single-use; "
                "build a fresh JobStream for every run"
            )
        if isinstance(first, ECC):
            raise ValueError(
                f"job stream starts with an ECC for job {first.job_id}; "
                "submissions must precede their commands"
            )
        # Feeds are time-ordered, so the first submission starts the clock.
        start = 0.0 if first is None else first.submit
        #: Latest completion instant and the run-window integrals read
        #: there (busy area, queue window, degraded time; all empty
        #: until the first finish), maintained by ``_on_finish``: the
        #: metrics window ends at the last finish even when faults keep
        #: the trackers moving after it.
        self._last_finish = start
        self._window = (0.0, (0.0, 0, 0.0, 0.0), 0.0)
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
        # Arrivals ride the engine's FIFO lane and cycles its owed
        # count; neither touches the event heap.  run() hands the
        # engine their hooks for the length of each drive.
        self.sim = Simulator(start_time=start)
        self._trace_out = Path(trace_out) if trace_out is not None else None
        # The live TraceWriter while run() executes (None otherwise, so
        # untraced handlers skip building the payload).  Between run()
        # calls the file is closed and ``_trace_journal`` holds its
        # (byte offset, record count); the next run() — or a
        # checkpoint-resumed one, whose journal load_checkpoint sets —
        # appends through TraceWriter.resume instead of truncating it.
        self._trace_writer: Optional[TraceWriter] = None
        self._trace_journal: Optional[Tuple[int, int]] = None
        self._spans_out = Path(spans_out) if spans_out is not None else None
        self._spans_on = spans or self._spans_out is not None
        self._decisions = decisions
        # Decision-provenance dedup: job_id -> last reported reason.
        # Policies re-report on every pass while a stall persists, so
        # only reason *changes* become trace records; the entry clears
        # when the job starts or requeues (a new wait episode).
        self._last_pass_reason: Dict[int, str] = {}
        self.telemetry = obs_telemetry.Telemetry()
        # Cycle bookkeeping accumulated in plain attributes and folded
        # into the telemetry registry at snapshot time: the counters'
        # final values are identical, but the per-cycle dict updates
        # disappear from the inner loop.
        self._n_cycles = 0
        self._n_passes = 0
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
        # Running jobs whose cancellation fired; an id leaves when its
        # job finishes or fails for good, so the set (and every
        # checkpoint) holds only the live ones.
        self._cancelled_while_running: set[int] = set()
        # The pending finish and crash event of each running attempt.
        self._finish_events: Dict[int, Event] = {}
        self._crash_events: Dict[int, Event] = {}
        self._pending_cycle_time: Optional[float] = None
        self.failed_records: List[FailureRecord] = []
        self._lost_work = 0.0
        self._lost_by_job: Dict[int, float] = {}
        self._requeue_count = 0
        self.faults: Optional[FaultInjector] = (
            FaultInjector(faults) if faults is not None and faults.enabled else None
        )
        self._pump()
        if self.faults is not None and faults.node_faults_enabled:
            self._schedule_node_fail()

    # ------------------------------------------------------------------
    # Ingestion (docs/scaling.md)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Top the in-flight window back up to :data:`STREAM_WINDOW` items.

        Each admitted item carries exactly one *anchor* (the arrival on
        the engine's arrival lane, or the command's heap event, at the
        item's feed time); auxiliary events it spawns (cancellations,
        dedicated-start timers) don't count against the window.
        Anchors decrement the in-flight count when they fire and pump
        a replacement, so the engine holds O(window + live jobs)
        entries regardless of the feed's length.
        """
        while self._feed_inflight < STREAM_WINDOW and self._feed_next is not None:
            self._admit_instant()

    def _admit_instant(self) -> None:
        """Admit the next item and every later item at the same instant.

        Whole instants keep the feed strictly ahead of the clock: when
        any event at time *t* fires, every item at *t* is already in
        the engine, so priority slots alone order same-instant work —
        whatever the window.
        """
        when = self._admit(self._feed_next)
        feed = self._feed
        while True:
            item = next(feed, None)
            if item is None:
                break
            self._feed_pulled += 1
            if (item.issue_time if isinstance(item, ECC) else item.submit) != when:
                break
            self._admit(item)
        self._feed_next = item

    def _admit(self, item: StreamItem) -> float:
        """Validate one pulled item, queue its events, return its time.

        Jobs get per-item admission checks (machine fit,
        dedicated-handling capability, duplicate ids — the last only
        against still-live jobs, since retired ids have been reclaimed;
        a :class:`Workload` is checked whole at construction).
        Commands trust the feed contract that their job came first: a
        target missing from the live map is treated as retired when the
        command fires, not as an error here.
        """
        sim = self.sim
        self._feed_inflight += 1
        if isinstance(item, ECC):
            target = self._jobs_by_id.get(item.job_id)
            if target is not None and item.issue_time < target.submit:
                raise ValueError(
                    f"ECC for job {item.job_id} issued at t={item.issue_time} "
                    f"before the job's submission at t={target.submit}"
                )
            sim.schedule_at(
                item.issue_time,
                partial(self._on_ecc, item),
                priority=EventPriority.ECC,
                name="ecc",
            )
            return item.issue_time
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
        # any ECC can touch it — the replica of Workload.offered_load()
        # (same left-to-right summation).
        runtime = job.effective_runtime()
        end = job.submit + runtime
        if self._span_start is None:
            self._span_start = job.submit
        if end > self._span_end:
            self._span_end = end
        self._work_sum += job.num * runtime
        sim.append_arrival(job.submit, job)
        if job.cancel_at is not None and job.cancel_at > job.submit:
            sim.schedule_at(
                job.cancel_at,
                partial(self._on_cancel, job),
                priority=EventPriority.CANCEL,
                name="cancel",
            )
        return job.submit

    def work_remains(self) -> bool:
        """Whether any job may still need the machine.

        Gates the fault injector's failure renewal chain: true while an
        admitted job is live or a job is still to come.  Commands alone
        keep no machine busy, so once every admitted job is done the
        feed is admitted ahead — whole instants, which reorders nothing
        since every item owns its priority slot — until a job shows up
        or the feed ends.  The answer never depends on the window.
        """
        while self._jobs_retired == self._jobs_admitted:
            if self._feed_next is None:
                return False
            self._admit_instant()
        return True

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, job: Job) -> None:
        self._feed_inflight -= 1
        if self._feed_next is not None:
            self._pump()
        now = self.sim.now
        writer = self._trace_writer
        if writer is not None:
            if job.is_dedicated:
                writer.write((now, "arrive", {
                    "job": job.job_id, "num": job.num, "job_kind": job.kind.value,
                    "requested_start": job.requested_start,
                }))
            else:
                writer.write((now, "arrive", {
                    "job": job.job_id, "num": job.num, "job_kind": job.kind.value,
                }))
        self.queue_tracker.on_enqueue(now, job.num * job.estimate)
        if job.is_dedicated:
            self.dedicated_queue.push(job)
            assert job.requested_start is not None
            if job.requested_start > now:
                self.sim.schedule_at(
                    job.requested_start,
                    self._run_cycle,
                    priority=EventPriority.TIMER,
                    name="ded-start",
                )
        else:
            self.batch_queue.push(job)
        if job.cancel_at == now:
            # Withdrawn at its own submission instant (an SWF status-5
            # job with a zero wait): it gets no CANCEL event, which
            # would fire ahead of this arrival, and is cancelled as
            # soon as it is queued, before the instant's cycle.
            self._on_cancel(job)
        self._request_cycle()

    def _on_finish(self, job: Job) -> None:
        now = self.sim.now
        self._end_attempt(job, now)
        job.finish_time = now
        job.state = JobState.FINISHED
        # Reads that commit nothing: exact because no tracker has
        # observed anything later than now.
        self._last_finish = now
        self._window = (
            self.tracker.busy_area(now),
            self.queue_tracker.window(now),
            self.machine.degraded_time(now),
        )
        self._completions.add(job.kind, job.submit, job.start_time, now, job.requested_start)
        cancelled = job.job_id in self._cancelled_while_running
        if cancelled:
            self._cancelled_while_running.discard(job.job_id)
        if self._retain_records:
            self.records.append(JobRecord.from_job(job, cancelled=cancelled))
        self._jobs_retired += 1
        # Reclaim the Job object; late commands aimed at it resolve to
        # DROPPED_FINISHED from the id lookup failing instead.
        del self._jobs_by_id[job.job_id]
        writer = self._trace_writer
        if writer is not None:
            writer.write((now, "finish", {"job": job.job_id, "num": job.num}))
        self._request_cycle()

    def _on_cancel(self, job: Job) -> None:
        """SWF status-5 semantics: withdraw a waiting job; terminate a
        running one at the cancellation instant.

        A job waiting out a retry backoff (``PENDING`` after an
        attempt) sits in no queue: it is withdrawn without touching the
        queues or the backlog, and its requeue event finds it
        cancelled.  Cancelling a finished, failed or cancelled job is a
        no-op.  A job is never ``PENDING`` here before its arrival: a
        cancellation at the submission instant runs from the arrival.
        """
        now = self.sim.now
        state = job.state
        writer = self._trace_writer
        if state is JobState.RUNNING:
            if writer is not None:
                writer.write((now, "cancel", {"job": job.job_id, "num": job.num, "was": "running"}))
            job.killed = True
            self._cancelled_while_running.add(job.job_id)
            self._reschedule_finish(job, now)
            return
        if state is JobState.QUEUED:
            if job.is_dedicated and any(
                j.job_id == job.job_id for j in self.dedicated_queue
            ):
                self.dedicated_queue.remove(job)
            else:
                self.batch_queue.remove(job)
            self.queue_tracker.on_dequeue(now, job.num * job.estimate)
        elif state is not JobState.PENDING:
            return
        job.state = JobState.CANCELLED
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
        if writer is not None:
            writer.write((now, "cancel", {"job": job.job_id, "num": job.num, "was": state.value}))
        if state is JobState.QUEUED:
            self._request_cycle()

    def _on_ecc(self, ecc: ECC) -> None:
        self._feed_inflight -= 1
        if self._feed_next is not None:
            self._pump()
        self.telemetry.count("ecc_commands")
        if not self.scheduler.elastic:
            # Non-elastic policies have no ECC processor appended; the
            # command is silently dropped (recorded for diagnostics).
            self._dropped_eccs += 1
            writer = self._trace_writer
            if writer is not None:
                writer.write((self.sim.now, "ecc-dropped", {"job": ecc.job_id, "ecc_kind": ecc.kind.value}))
            return
        # None for a finished job (reclaimed from the live map): the
        # processor still sees the command and answers dropped-finished.
        job = self._jobs_by_id.get(ecc.job_id)
        if self._apply_ecc(ecc, job).outcome.applied:
            if job.state is JobState.RUNNING:
                self.active.resort()
            self._request_cycle()

    def _apply_ecc(
        self, ecc: ECC, job: Optional[Job], *, scheduler_initiated: bool = False
    ) -> ECCResult:
        """Run one command through the ECC processor and mirror its result.

        The one path by which a command's effect reaches the run: a
        resized running job's machine allocation and active-list
        aggregate, a queued job's batch-queue index and backlog, the
        finish event of a job whose kill-by time moved, and the ``ecc``
        trace record (no ``num`` once the target has finished; an
        ``origin`` for malleability commands).  Callers restore
        active-list order and owe the cycle.
        """
        now = self.sim.now
        if job is not None:
            num_before, estimate_before = job.num, job.estimate
        token = obs_spans.begin("ecc_apply")
        try:
            result = self.ecc_processor.apply(
                ecc, job, now, free=self._free_now(),
                scheduler_initiated=scheduler_initiated,
            )
        finally:
            obs_spans.end(token)
        writer = self._trace_writer
        if job is None:
            if writer is not None:
                # No size to report: the job is gone.
                writer.write((now, "ecc", {
                    "job": ecc.job_id, "ecc_kind": ecc.kind.value,
                    "amount": ecc.amount, "outcome": result.outcome.value,
                }))
            return result
        if result.old_num is not None:
            # A running job was resized: mirror the new size into the
            # machine allocation and the active-list aggregate before
            # anything else reads free capacity.
            self.machine.resize(job.job_id, job.num, time=now)
            self.active.note_resize(job.num - result.old_num)
        elif result.outcome.applied and job.state is JobState.QUEUED:
            # The processor mutated a queued job in place: keep the
            # batch queue's size buckets and estimate column (a no-op
            # for dedicated jobs) and the backlog integral exact.  Jobs
            # in backoff, cancelled or not yet arrived are in no queue.
            self.batch_queue.reindex(job)
            if job.num == num_before:
                delta = job.num * (job.estimate - estimate_before)
            else:
                # EP/RP resize the request, not the estimate.
                delta = job.num * job.estimate - num_before * estimate_before
            self.queue_tracker.on_work_changed(now, delta)
        if writer is not None:
            data = {
                "job": ecc.job_id, "ecc_kind": ecc.kind.value,
                "amount": ecc.amount, "outcome": result.outcome.value,
                # Post-command size: lets trace analytics map EP/RP
                # commands to allocation deltas (repro trace --check).
                "num": job.num,
            }
            if scheduler_initiated:
                # Tells malleability commands from workload ECCs.
                data["origin"] = "scheduler"
            writer.write((now, "ecc", data))
        if result.outcome is ECCOutcome.APPLIED_RUNNING:
            assert result.new_kill_by is not None
            self._reschedule_finish(job, result.new_kill_by)
        elif result.outcome is ECCOutcome.TERMINATED_JOB:
            self._reschedule_finish(job, now)
        return result

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

    def _end_attempt(self, job: Job, now: float, *, release: bool = True) -> None:
        """End a running attempt: drop its pending finish and crash
        events, take it off the active list and release its allocation
        (``release=False`` when a pset eviction already did)."""
        finish = self._finish_events.pop(job.job_id, None)
        if finish is not None:
            finish.cancel()
        crash = self._crash_events.pop(job.job_id, None)
        if crash is not None:
            crash.cancel()
        self.active.remove(job)
        if release:
            self.machine.release(job.job_id, time=now)

    # ------------------------------------------------------------------
    # Fault events and failure recovery (docs/resilience.md)
    # ------------------------------------------------------------------
    # The injector only answers what breaks when; these handlers apply
    # it.  Every fault event fires at EventPriority.FAULT: after
    # same-instant finishes (a job completing exactly when its pset
    # dies has completed) and before arrivals and cycles (the cycle
    # sees post-fault capacity).
    def _schedule_node_fail(self) -> None:
        self.sim.schedule_in(
            self.faults.next_failure_gap(),
            self._on_node_fail,
            priority=EventPriority.FAULT,
            name="node-fail",
        )

    def _on_node_fail(self) -> None:
        if not self.work_remains():
            # Nothing left to disturb: stop the chain so the heap can
            # drain (outstanding repairs still fire and close the
            # degraded-time window).
            return
        online = self.machine.online_units()
        if online:
            index, repair = self.faults.pick_failure(online)
            now = self.sim.now
            evicted = self.machine.fail_unit(index, time=now)
            writer = self._trace_writer
            if writer is not None:
                writer.write((now, "node-fail", {"unit": index, "evicted": evicted}))
            if evicted is not None:
                # fail_unit already released the allocation in full
                self._fail_running_job(
                    self._jobs_by_id[int(evicted)], release=False, reason="evicted"
                )
            self.sim.schedule_in(
                repair,
                # partial, not a lambda: scheduled actions must stay
                # picklable for checkpointing (repro.durable).
                partial(self._on_node_repair, index),
                priority=EventPriority.FAULT,
                name=f"node-repair#{index}",
            )
        self._schedule_node_fail()

    def _on_node_repair(self, index: int) -> None:
        now = self.sim.now
        self.machine.repair_unit(index, time=now)
        writer = self._trace_writer
        if writer is not None:
            writer.write((now, "node-repair", {"unit": index}))
        # Returned capacity may unblock the queue head immediately.
        self._request_cycle()

    def _arm_crash(self, job: Job) -> None:
        """Schedule the crash the injector draws for this attempt, if any."""
        delay = self.faults.crash_delay(job)
        if delay is not None:
            self._crash_events[job.job_id] = self.sim.schedule_in(
                delay,
                partial(self._fail_running_job, job, release=True, reason="crash"),
                priority=EventPriority.FAULT,
                name=f"job-fail#{job.job_id}",
            )

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
        self._end_attempt(job, now, release=release)
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
        writer = self._trace_writer
        if writer is not None:
            writer.write((now, "job-fail", {
                "job": job.job_id, "num": job.num,
                "reason": reason, "attempt": attempt, "lost": lost,
            }))
        permanent = attempt > self.retry.max_retries
        if permanent:
            job.state = JobState.FAILED
            job.finish_time = now
            self._cancelled_while_running.discard(job.job_id)
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
            if writer is not None:
                writer.write((now, "job-failed-permanently", {"job": job.job_id, "attempts": attempt}))
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
                priority=EventPriority.REQUEUE,
                name="requeue",
            )
        self.scheduler.on_job_failure(job, now, permanent)
        self._request_cycle()

    def _on_requeue(self, job: Job) -> None:
        """Backoff expired: the failed job rejoins the batch queue,
        unless it was cancelled while it waited."""
        if job.state is not JobState.PENDING:
            return
        now = self.sim.now
        if self._decisions:
            # A new wait episode: report the next pass-over afresh.
            self._last_pass_reason.pop(job.job_id, None)
        self.batch_queue.push_requeue(job, now)
        self.queue_tracker.on_enqueue(now, job.num * job.estimate)
        self._requeue_count += 1
        writer = self._trace_writer
        if writer is not None:
            writer.write((now, "requeue", {"job": job.job_id, "attempt": job.requeues}))
        self._request_cycle()

    # ------------------------------------------------------------------
    # Decision provenance (docs/observability.md)
    # ------------------------------------------------------------------
    def _note_pass_over(self, job: Job, reason: str) -> None:
        """Record why ``job`` was passed over (the ``ctx.explain`` sink).

        Wired onto the context only while :meth:`run` drives a
        ``decisions=True`` run, so the default path never reaches here.
        Deduplicated on the job's *last* reason: policies re-report on
        every pass while a stall persists, so only changes land as
        ``decision`` records in the trace stream (``repro explain --job
        N`` renders them).
        """
        if self._last_pass_reason.get(job.job_id) == reason:
            return
        self._last_pass_reason[job.job_id] = reason
        self.telemetry.count("decisions_recorded")
        writer = self._trace_writer
        if writer is not None:
            writer.write((
                self.sim.now, "decision", {"job": job.job_id, "reason": reason, "num": job.num}
            ))

    # ------------------------------------------------------------------
    # Scheduling cycle
    # ------------------------------------------------------------------
    def _request_cycle(self) -> None:
        """Owe one cycle at ``now`` (deduplicated per instant).

        The mark clears whenever a cycle runs, the ded-start timer's
        included, so a request after a timer cycle owes a second cycle
        at that instant even while the first is still owed.
        """
        now = self.sim.now
        if self._pending_cycle_time == now:
            return
        self._pending_cycle_time = now
        self.sim.request_cycle()

    def _run_cycle(self) -> None:
        now = self.sim.now
        if self._pending_cycle_time == now:
            self._pending_cycle_time = None
        scheduler = self.scheduler
        self._n_cycles += 1
        token = obs_spans.begin("schedule_cycle")
        ctx = self._ctx
        ctx.now = now
        ctx._free = None  # invalidate_free(), inlined for the hot loop
        pass_index = 0
        try:
            for pass_index in range(MAX_CYCLE_PASSES):
                ctx.allow_scount_increment = pass_index == 0
                decision = scheduler.cycle(ctx)
                if not (decision.starts or decision.promotions or decision.commands):
                    return
                self._apply(decision)
                ctx._free = None
        finally:
            self._n_passes += pass_index + 1
            obs_spans.end(token)
        raise SimulationError(
            f"scheduler {self.scheduler.name} did not reach a fix-point "
            f"within {MAX_CYCLE_PASSES} passes at t={now}"
        )

    def _apply_commands(self, commands: Sequence[ECC], now: float) -> None:
        """Apply a malleable policy's synthetic shrink/expand commands.

        Each command goes through :meth:`_apply_ecc` with
        ``scheduler_initiated=True`` (docs/malleability.md), as a
        workload ECC would.  Policies only emit commands they validated
        against the snapshot they decided on, so a rejection here is a
        policy/runner disagreement and fails loudly.
        """
        telemetry = self.telemetry
        for ecc in commands:
            job = self._jobs_by_id.get(ecc.job_id)
            if job is None or job.state is not JobState.RUNNING:
                raise SimulationError(
                    f"{self.scheduler.name} issued a command for job "
                    f"{ecc.job_id} which is not running at t={now}"
                )
            old_kill_by = job.kill_by()
            result = self._apply_ecc(ecc, job, scheduler_initiated=True)
            num_before = result.old_num
            if num_before is None:
                raise SimulationError(
                    f"{self.scheduler.name}'s {ecc.kind.value} command for "
                    f"running job {ecc.job_id} came back "
                    f"{result.outcome.value} at t={now}; malleable policies "
                    "must pre-validate their commands"
                )
            new_kill_by = result.new_kill_by
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
        # Kill-by times moved; restore ordering before any start
        # bisects into the list.
        self.active.resort()

    def _apply(self, decision: CycleDecision) -> None:
        now = self.sim.now
        writer = self._trace_writer
        if decision.commands:
            self._apply_commands(decision.commands, now)
        for job in decision.promotions:
            # Algorithm 3: the due dedicated head becomes the head of
            # the batch queue (scount was set by the policy).
            self.dedicated_queue.remove(job)
            self.batch_queue.push_head(job)
            if writer is not None:
                writer.write((now, "promote", {"job": job.job_id, "scount": job.scount}))
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
                self._arm_crash(job)
            if writer is not None:
                writer.write((now, "start", {"job": job.job_id, "num": job.num}))

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
        writer = None
        if self._trace_out is not None:
            journal = self._trace_journal
            if journal is None:
                writer = TraceWriter(self._trace_out, meta=self._trace_meta())
            else:
                # A later segment of a split or checkpoint-resumed run.
                offset, count = journal
                writer = TraceWriter.resume(self._trace_out, offset=offset, count=count)
                self._trace_journal = None
            self._trace_writer = writer
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
        # One clock reading on each side of the engine drive: that
        # interval is run_wall_s, and with spans on it is also the
        # "event" phase.  Every span opened inside it closes as a stack
        # root of the fresh recorder, so the phase's self time is the
        # interval minus root_child and the phase self times sum to
        # run_wall_s.
        sim = self.sim
        # Held only while the engine is driven: a lasting runner <->
        # engine (or context) cycle would keep a finished run's state
        # alive until the next full garbage collection.
        sim.on_arrival, sim.on_cycle = self._on_arrival, self._run_cycle
        if self._decisions:
            self._ctx.explain = self._note_pass_over
        events_before = sim.processed_events
        started = perf_counter()
        try:
            # The active registries let instrumented library code
            # (repro.core.dp, repro.core.easy) report without plumbing
            # handles through every policy signature.
            with ExitStack() as stack:
                stack.enter_context(obs_telemetry.activated(self.telemetry))
                if recorder is not None:
                    stack.enter_context(obs_spans.activated(recorder))
                if checkpoint is None:
                    sim.run(until=until)
                else:
                    from repro.durable.checkpoint import (
                        CheckpointConfig,
                        drive_checkpointed,
                    )

                    drive_checkpointed(
                        self, CheckpointConfig.coerce(checkpoint), until=until
                    )
        finally:
            wall = perf_counter() - started
            sim.on_arrival = sim.on_cycle = self._ctx.explain = None
            self.telemetry.add_time("run_wall_s", wall)
            if recorder is not None:
                recorder.add_bulk(
                    "event",
                    sim.processed_events - events_before,
                    wall,
                    wall - recorder.root_child,
                )
                if recorder.timeline:
                    recorder.add_slice("event", started, wall)
                recorder.fold_into(self.telemetry)
                if self._spans_out is not None:
                    recorder.write_chrome_trace(self._spans_out)
            if writer is not None:
                self._trace_writer = None
                writer.close()
                self._trace_journal = (self._trace_out.stat().st_size, writer.count)
        # The live map holds queued/running jobs plus the (rare)
        # cancelled/failed ones kept for late-ECC lookups; the counters
        # tell them apart without a full-workload list.
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

    def _trace_meta(self) -> Dict[str, object]:
        """Header metadata for a streamed trace file."""
        from repro import __version__

        return {
            "algorithm": self.scheduler.name,
            "machine_size": self.machine.total,
            "granularity": self.machine.granularity,
            **self._feed_meta,
            "faulty": self.faults is not None,
            "repro_version": __version__,
        }

    def _fold_cycle_telemetry(self) -> None:
        """Fold the batched cycle counters into the registry.

        The attributes are reset so repeated ``run(until=...)`` /
        ``_metrics()`` calls accumulate instead of double-counting;
        zero counters stay absent, exactly as with per-cycle counting.
        """
        telemetry = self.telemetry
        if self._n_cycles:
            telemetry.count("schedule_cycles", self._n_cycles)
        if self._n_passes:
            telemetry.count("schedule_passes", self._n_passes)
        self._n_cycles = self._n_passes = 0

    def _offered_load(self) -> float:
        """The paper's Load of the admitted workload.

        :func:`repro.workload.load.load_from` over the scalars
        accumulated at admission (pristine jobs, same summation order —
        bitwise-equal to ``Workload.offered_load()`` once the feed is
        drained).
        """
        if self._span_start is None:
            return 0.0
        return load_from(self._work_sum, self._span_end - self._span_start, self.machine.total)

    def _metrics(self) -> RunMetrics:
        self._fold_cycle_telemetry()
        busy_area, queue_window, degraded_time = self._window
        ecc_stats = {
            outcome.value: count
            for outcome, count in self.ecc_processor.stats.items()
            if count
        }
        if self._dropped_eccs:
            ecc_stats["dropped-not-elastic"] = self._dropped_eccs
        makespan = self._last_finish - self.tracker.start_time
        utilization = utilization_of(busy_area, self.machine.total, makespan)
        completions = self._completions
        online_summary = (
            completions.summary(utilization=utilization, makespan=makespan)
            if self._online else None
        )
        return RunMetrics(
            algorithm=self.scheduler.name,
            machine_size=self.machine.total,
            utilization=utilization,
            makespan=makespan,
            **completions.stats(),
            records=list(self.records),
            offered_load=self._offered_load(),
            ecc_stats=ecc_stats,
            events_processed=self.sim.processed_events,
            queue=QueueSummary.over(queue_window, makespan),
            cancelled_records=list(self.cancelled_records),
            failed_records=list(self.failed_records),
            lost_work=self._lost_work,
            requeue_count=self._requeue_count,
            degraded_time=degraded_time,
            node_failures=self.faults.node_failures if self.faults else 0,
            telemetry=self.telemetry.snapshot(),
            online=online_summary,
        )


def simulate(
    workload: Union[Workload, JobStream],
    scheduler: Scheduler,
    *,
    checkpoint: Optional[object] = None,
    **knobs: object,
) -> RunMetrics:
    """One-shot convenience wrapper around :class:`SimulationRunner`.

    ``knobs`` are the runner's keywords.  ``checkpoint`` enables
    periodic crash-consistent checkpoints — a
    :class:`~repro.durable.checkpoint.CheckpointConfig` or a checkpoint
    directory path (docs/resilience.md); continue an interrupted run
    with :func:`repro.durable.checkpoint.resume`.
    """
    return SimulationRunner(workload, scheduler, **knobs).run(checkpoint=checkpoint)


__all__ = ["MAX_CYCLE_PASSES", "SimulationRunner", "simulate"]
