"""Per-job records and per-run aggregate metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional

from repro.metrics.online import OnlineAggregator
from repro.metrics.queue_stats import QueueSummary
from repro.metrics.stats import paper_slowdown
from repro.workload.job import Job, JobKind, JobState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.metrics.online import OnlineSummary
    from repro.obs.telemetry import TelemetrySnapshot


class JobRecord(NamedTuple):
    """Immutable completion record of one job.

    Extracted from the mutable :class:`~repro.workload.job.Job` when
    it finishes, so metrics never depend on later mutation.  A tuple:
    a run keeps one per completed job.
    """

    job_id: int
    kind: JobKind
    num: int
    submit: float
    start: float
    finish: float
    requested_start: Optional[float] = None
    eccs_applied: int = 0
    killed: bool = False
    #: True when the user cancelled the job while it was running.
    cancelled: bool = False

    @property
    def wait(self) -> float:
        """Queueing delay in seconds."""
        return self.start - self.submit

    @property
    def runtime(self) -> float:
        """Realized runtime in seconds."""
        return self.finish - self.start

    @property
    def dedicated_delay(self) -> Optional[float]:
        """Start lateness vs. the rigid requested start (dedicated only)."""
        if self.requested_start is None:
            return None
        return max(0.0, self.start - self.requested_start)

    @classmethod
    def from_job(cls, job: Job, cancelled: bool = False) -> "JobRecord":
        """Snapshot a finished job; ``cancelled`` marks a job the user
        cancelled while it was running (a cancelled state implies it)."""
        if job.start_time is None or job.finish_time is None:
            raise ValueError(f"job {job.job_id} has not completed")
        return cls(
            job.job_id,
            job.kind,
            job.num,
            job.submit,
            job.start_time,
            job.finish_time,
            job.requested_start,
            job.ecc_count,
            job.killed,
            cancelled or job.state is JobState.CANCELLED,
        )


@dataclass(frozen=True)
class CancellationRecord:
    """A job withdrawn from the queue before it ever started.

    SWF logs mark these with status 5; they consume queue capacity but
    no processors, so they are excluded from wait/runtime statistics
    (standard practice in backfilling studies) and reported separately.
    """

    job_id: int
    kind: JobKind
    num: int
    submit: float
    cancelled_at: float

    @property
    def queued_for(self) -> float:
        """How long the job sat in the queue before withdrawal."""
        return self.cancelled_at - self.submit


@dataclass(frozen=True)
class FailureRecord:
    """A job that exhausted its retry budget (fault injection).

    Permanently failed jobs never complete, so they have no
    :class:`JobRecord`; their story — attempts consumed, processor-
    seconds of work thrown away — is reported separately, like
    cancellations.

    Attributes:
        job_id: The job.
        kind: Batch or dedicated.
        num: Requested processors.
        submit: Original submission time.
        failed_at: Instant of the final, budget-exhausting failure.
        attempts: Total attempts consumed (``max_retries + 1``).
        lost_work: Cumulative processor-seconds of discarded partial
            execution across all the job's attempts.
        reason: Cause of the final failure (``"crash"`` for a
            job-level fault, ``"evicted"`` for a pset failure).
    """

    job_id: int
    kind: JobKind
    num: int
    submit: float
    failed_at: float
    attempts: int
    lost_work: float
    reason: str


@dataclass
class RunMetrics:
    """Aggregates of one simulation run (one plotted point in §V).

    The completion statistics (``n_jobs`` through
    ``dedicated_on_time_rate``) are :meth:`OnlineAggregator.stats
    <repro.metrics.online.OnlineAggregator.stats>` of the run's
    completions, folded in completion order as they happen, so reading
    one is O(1) and does not need ``records``.  Build hand-made metrics
    with :meth:`from_records`, which folds the records the same way.

    Attributes:
        algorithm: Registry name of the policy.
        machine_size: ``M``.
        utilization: Mean utilization over the run window (exact
            integral; see :class:`repro.cluster.UtilizationTracker`).
        makespan: First submission to last completion.
        n_jobs: Number of completed jobs.
        mean_wait: Mean job waiting time (seconds).
        mean_runtime: Mean realized runtime (seconds).
        mean_response: Mean response time ``wait + runtime`` (seconds).
        mean_bounded_slowdown: Mean Feitelson bounded slowdown
            (:data:`~repro.metrics.online.BSLD_THRESHOLD`).
        mean_per_job_slowdown: Mean of per-job slowdowns
            ``(wait + run) / max(1, run)`` (extra metric).
        mean_dedicated_delay: Mean start lateness of dedicated jobs
            against their requested start (0 when none).
        dedicated_on_time_rate: Fraction of dedicated jobs started at
            their requested time (1 when none).
        records: Completion records of every finished job, in
            completion order (empty when the run was made with
            ``retain_records=False``).
        offered_load: The paper's Load of the input workload.
        ecc_stats: Outcome counts from the ECC processor (empty for
            non-elastic runs).
        events_processed: Discrete events the simulator fired during
            the run (0 for hand-built metrics); the numerator of the
            perf benchmark's events/sec throughput figure.
    """

    algorithm: str
    machine_size: int
    utilization: float
    makespan: float
    n_jobs: int
    mean_wait: float
    mean_runtime: float
    mean_response: float
    mean_bounded_slowdown: float
    mean_per_job_slowdown: float
    mean_dedicated_delay: float
    dedicated_on_time_rate: float
    records: List[JobRecord] = field(default_factory=list)
    offered_load: float = 0.0
    ecc_stats: Dict[str, int] = field(default_factory=dict)
    events_processed: int = 0
    #: Time-averaged queue dynamics (None for hand-built metrics).
    queue: Optional[QueueSummary] = None
    #: Jobs withdrawn from the queue before starting (SWF status 5).
    cancelled_records: List["CancellationRecord"] = field(default_factory=list)
    # --- resilience (docs/resilience.md; all zero on fault-free runs) ---
    #: Jobs that exhausted their retry budget and never completed.
    failed_records: List["FailureRecord"] = field(default_factory=list)
    #: Processor-seconds of partial execution discarded by failures and
    #: evictions (after any checkpoint credit).
    lost_work: float = 0.0
    #: Times any job re-entered the batch queue after a failure.
    requeue_count: int = 0
    #: Seconds the machine spent with >= 1 pset offline within the run
    #: window (first submission to last completion).
    degraded_time: float = 0.0
    #: Pset failures injected during the run.
    node_failures: int = 0
    # --- observability (docs/observability.md) ---
    #: Run telemetry: counters and wall timers (queue depth lives in
    #: ``queue``, exactly).
    #: ``compare=False`` is load-bearing: the timers are wall-clock and
    #: therefore machine-dependent, while `RunMetrics` equality is the
    #: repo's determinism contract (serial == parallel == traced) and
    #: must see only the scheduling outcomes.  None for hand-built
    #: metrics and entries cached before this field existed.
    telemetry: Optional["TelemetrySnapshot"] = field(
        default=None, compare=False, repr=False
    )
    #: O(1)-memory online summary with the P² p95 wait
    #: (:mod:`repro.metrics.online`), populated by runs with
    #: ``online=True``.  ``compare=False`` like ``telemetry``: whether
    #: the estimator ran is an observability choice, not a scheduling
    #: outcome.
    online: Optional["OnlineSummary"] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def from_records(cls, records: Iterable[JobRecord], **fields: Any) -> "RunMetrics":
        """Metrics of ``records`` (in completion order) plus the other ``fields``.

        >>> record = JobRecord(1, JobKind.BATCH, 32, submit=0.0, start=10.0, finish=110.0)
        >>> m = RunMetrics.from_records(
        ...     [record], algorithm="EASY", machine_size=320, utilization=0.1,
        ...     makespan=110.0)
        >>> m.n_jobs, m.mean_wait, m.slowdown
        (1, 10.0, 1.1)
        """
        records = list(records)
        fold = OnlineAggregator()
        fold.observe_all(records)
        return cls(records=records, **fold.stats(), **fields)

    # ------------------------------------------------------------------
    @property
    def n_cancelled(self) -> int:
        """Jobs withdrawn from the queue before starting."""
        return len(self.cancelled_records)

    @property
    def failed_jobs(self) -> int:
        """Jobs that permanently failed (retry budget exhausted)."""
        return len(self.failed_records)

    @property
    def slowdown(self) -> float:
        """The paper's slowdown: ``(mean wait + mean runtime) / mean runtime``."""
        return paper_slowdown(self.mean_wait, self.mean_runtime)

    def dedicated_records(self) -> List[JobRecord]:
        """Records of dedicated jobs only."""
        return [r for r in self.records if r.kind is JobKind.DEDICATED]

    def as_row(self) -> Dict[str, float]:
        """Flat dict for tabular reports."""
        return {
            "utilization": self.utilization,
            "mean_wait": self.mean_wait,
            "slowdown": self.slowdown,
            "mean_runtime": self.mean_runtime,
            "makespan": self.makespan,
            "offered_load": self.offered_load,
            "n_jobs": float(self.n_jobs),
            "failed_jobs": float(self.failed_jobs),
            "requeue_count": float(self.requeue_count),
            "lost_work": self.lost_work,
            "degraded_time": self.degraded_time,
            "node_failures": float(self.node_failures),
        }


__all__ = ["CancellationRecord", "FailureRecord", "JobRecord", "RunMetrics"]
