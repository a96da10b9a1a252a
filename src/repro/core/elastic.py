"""The ECC processor — runtime elasticity (§III-C, Figure 3).

Elastic Control Commands arrive on their own FCFS *elastic control
queue* and are applied by the ECC processor to previously submitted
jobs, whether still queued or already running:

- **ET** extends the execution-time requirement: the kill-by time of a
  running job moves later; a queued job's estimate grows.
- **RT** reduces it: a running job's kill-by moves earlier, clamped at
  *now* (a reduction below the already-elapsed time terminates the job
  immediately); a queued job's estimate shrinks, clamped at a minimal
  runtime.
- **EP/RP** (resource dimension) are the paper's future work; a
  prototype is provided behind ``allow_resource_eccs`` for queued
  jobs (the ECC-intensity ablation), and behind
  ``allow_running_resize`` for *running* jobs — the primitive the
  scheduler-initiated malleability layer (:mod:`repro.core.malleable`,
  docs/malleability.md) is built on.  A running resize is
  work-conserving: the job's remaining processor-seconds are
  preserved, so shrinking stretches the residual runtime by
  ``old/new`` and expanding compresses it.

A per-job command cap ("a maximum count on number of ECCs can be
imposed for a given job") is enforced when ``max_eccs_per_job`` is
set.  The processor mutates jobs only; rescheduling the corresponding
finish events is the simulation runner's duty, driven by the returned
:class:`ECCResult`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from repro.workload.ecc import ECC
from repro.workload.job import Job, JobState

#: Estimates can never shrink below this (a zero-length job is
#: meaningless in SWF-like workloads).
MIN_RUNTIME = 1.0


class ECCOutcome(Enum):
    """What happened to one command."""

    APPLIED_QUEUED = "applied-queued"
    APPLIED_RUNNING = "applied-running"
    TERMINATED_JOB = "terminated-job"  # RT reduced a running job to zero residual
    DROPPED_FINISHED = "dropped-finished"  # job already completed
    REJECTED_CAP = "rejected-cap"  # per-job ECC budget exhausted
    REJECTED_RESOURCE = "rejected-resource"  # EP/RP without opt-in / on running job

    @property
    def applied(self) -> bool:
        """Whether the job was actually modified."""
        return self in (
            ECCOutcome.APPLIED_QUEUED,
            ECCOutcome.APPLIED_RUNNING,
            ECCOutcome.TERMINATED_JOB,
        )


class ECCResult(NamedTuple):
    """Outcome of applying one ECC.

    Attributes:
        outcome: What happened.
        new_kill_by: For commands applied to *running* jobs: the job's
            new scheduled termination instant, so the runner can
            reschedule the finish event.  ``None`` otherwise.
        old_num: For resource commands applied to *running* jobs: the
            processor count before the resize, so the runner can patch
            the machine allocation and the active-list aggregate.
            ``None`` otherwise.
    """

    outcome: ECCOutcome
    new_kill_by: Optional[float] = None
    old_num: Optional[int] = None


class ECCProcessor:
    """FCFS processor for the elastic control queue.

    Args:
        max_eccs_per_job: Optional per-job command budget (user-issued
            commands only; scheduler-initiated commands bypass it).
        allow_resource_eccs: Opt-in for the queued-job EP/RP prototype.
        allow_running_resize: Opt-in for EP/RP on *running* jobs (the
            malleability primitive; docs/malleability.md).  Running
            resizes are work-conserving and respect the job's declared
            ``[min_procs, max_procs]`` range when present.
    """

    def __init__(
        self,
        max_eccs_per_job: Optional[int] = None,
        allow_resource_eccs: bool = False,
        machine_granularity: int = 1,
        machine_size: Optional[int] = None,
        allow_running_resize: bool = False,
    ) -> None:
        if max_eccs_per_job is not None and max_eccs_per_job < 0:
            raise ValueError("max_eccs_per_job must be non-negative")
        self.max_eccs_per_job = max_eccs_per_job
        self.allow_resource_eccs = allow_resource_eccs
        self.allow_running_resize = allow_running_resize
        self.machine_granularity = machine_granularity
        self.machine_size = machine_size
        self.stats: dict[ECCOutcome, int] = {outcome: 0 for outcome in ECCOutcome}

    # ------------------------------------------------------------------
    def apply(
        self,
        ecc: ECC,
        job: Optional[Job],
        now: float,
        *,
        free: Optional[int] = None,
        scheduler_initiated: bool = False,
    ) -> ECCResult:
        """Apply one command to its target job at time ``now``.

        Args:
            job: The target, or ``None`` when it has finished and left
                the runner's live map (answered ``dropped-finished``).
            free: Free machine capacity at ``now``; caps how far an EP
                command can grow a running job (``None`` = unknown, EP
                on running jobs is then rejected).
            scheduler_initiated: The command was synthesized by a
                malleable policy rather than issued by the user; it
                bypasses ``max_eccs_per_job`` (the cap bounds *user*
                commands, §III-C) but still counts in ``ecc_count``.
        """
        result = self._apply(
            ecc, job, now, free=free, scheduler_initiated=scheduler_initiated
        )
        self.stats[result.outcome] += 1
        if result.outcome.applied:
            job.ecc_count += 1
        return result

    # ------------------------------------------------------------------
    def _apply(
        self,
        ecc: ECC,
        job: Optional[Job],
        now: float,
        *,
        free: Optional[int] = None,
        scheduler_initiated: bool = False,
    ) -> ECCResult:
        if job is None or job.state is JobState.FINISHED:
            return ECCResult(ECCOutcome.DROPPED_FINISHED)
        if (
            not scheduler_initiated
            and self.max_eccs_per_job is not None
            and job.ecc_count >= self.max_eccs_per_job
        ):
            return ECCResult(ECCOutcome.REJECTED_CAP)
        if ecc.kind.is_procs:
            if job.state is JobState.RUNNING:
                return self._apply_running_resize(ecc, job, now, free)
            return self._apply_resource(ecc, job)
        return self._apply_time(ecc, job, now)

    def _apply_time(self, ecc: ECC, job: Job, now: float) -> ECCResult:
        assert job.actual is not None
        delta = ecc.signed_amount()
        if job.state is JobState.RUNNING:
            assert job.start_time is not None
            elapsed = now - job.start_time
            new_estimate = max(elapsed, job.estimate + delta)
            new_actual = max(elapsed, job.actual + delta)
            job.estimate = new_estimate
            job.actual = new_actual
            new_kill_by = job.start_time + min(new_estimate, new_actual)
            if new_kill_by <= now:
                return ECCResult(ECCOutcome.TERMINATED_JOB, new_kill_by=now)
            return ECCResult(ECCOutcome.APPLIED_RUNNING, new_kill_by=new_kill_by)
        # Queued (or pending) job: adjust the declared requirement.
        job.estimate = max(MIN_RUNTIME, job.estimate + delta)
        job.actual = max(MIN_RUNTIME, job.actual + delta)
        return ECCResult(ECCOutcome.APPLIED_QUEUED)

    def _range_bounds(self, job: Job) -> tuple[int, Optional[int]]:
        """Granularity-snapped ``[lo, hi]`` resize bounds for ``job``.

        The machine floor/ceiling always applies; a declared
        ``[min_procs, max_procs]`` range tightens it (rounded inward to
        the granularity, so every admissible size is allocatable).
        """
        gran = self.machine_granularity
        lo = gran
        hi = self.machine_size
        if job.min_procs is not None:
            lo = max(lo, -(-job.min_procs // gran) * gran)  # ceil to gran
        if job.max_procs is not None:
            cap = (job.max_procs // gran) * gran  # floor to gran
            hi = cap if hi is None else min(hi, cap)
        return lo, hi

    def _apply_resource(self, ecc: ECC, job: Job) -> ECCResult:
        if not self.allow_resource_eccs:
            return ECCResult(ECCOutcome.REJECTED_RESOURCE)
        gran = self.machine_granularity
        delta = ecc.signed_amount()
        # Snap to the allocation granularity, clamp into [gran, M] and
        # any declared malleability range.
        new_num = int(round((job.num + delta) / gran)) * gran
        lo, hi = self._range_bounds(job)
        new_num = max(lo, new_num)
        if hi is not None:
            new_num = min(hi, new_num)
        job.num = new_num
        return ECCResult(ECCOutcome.APPLIED_QUEUED)

    def _apply_running_resize(
        self, ecc: ECC, job: Job, now: float, free: Optional[int]
    ) -> ECCResult:
        """EP/RP on a running job: the malleability primitive.

        Work-conserving semantics: the remaining processor-seconds
        (``(kill_by - now) * num`` under a linear-speedup model) are
        preserved, so both ``estimate`` and ``actual`` rescale their
        residual by ``old_num / new_num`` and the kill-by time moves.
        The new size is snapped to the granularity and clamped into
        the machine and ``[min_procs, max_procs]`` bounds; expansion
        is additionally capped by the ``free`` capacity.  A command
        the clamps reduce to a no-op is rejected.
        """
        if not self.allow_running_resize:
            return ECCResult(ECCOutcome.REJECTED_RESOURCE)
        assert job.start_time is not None and job.actual is not None
        gran = self.machine_granularity
        delta = ecc.signed_amount()
        new_num = int(round((job.num + delta) / gran)) * gran
        lo, hi = self._range_bounds(job)
        new_num = max(lo, new_num)
        if hi is not None:
            new_num = min(hi, new_num)
        if new_num > job.num:
            if free is None:
                return ECCResult(ECCOutcome.REJECTED_RESOURCE)
            # Cap growth at the free capacity (snapped down to gran).
            headroom = (free // gran) * gran
            new_num = min(new_num, job.num + headroom)
        if new_num == job.num:
            return ECCResult(ECCOutcome.REJECTED_RESOURCE)
        old_num = job.num
        elapsed = now - job.start_time
        factor = old_num / new_num
        remaining_estimate = max(0.0, job.estimate - elapsed)
        remaining_actual = max(0.0, job.actual - elapsed)
        job.num = new_num
        job.estimate = elapsed + remaining_estimate * factor
        job.actual = elapsed + remaining_actual * factor
        new_kill_by = job.start_time + min(job.estimate, job.actual)
        if new_kill_by <= now:
            # Residual was zero (resize at the kill-by instant): the
            # job terminates now, at its new size.
            return ECCResult(
                ECCOutcome.TERMINATED_JOB, new_kill_by=now, old_num=old_num
            )
        return ECCResult(
            ECCOutcome.APPLIED_RUNNING, new_kill_by=new_kill_by, old_num=old_num
        )


__all__ = ["ECCOutcome", "ECCProcessor", "ECCResult", "MIN_RUNTIME"]
