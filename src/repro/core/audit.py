"""Auditing decorator for scheduling policies.

Wraps any :class:`~repro.core.base.Scheduler` and re-checks, around
*every* cycle pass:

- the Notations-box structural invariants (``W^b`` FIFO with the
  Algorithm-3 promoted prefix, ``W^d`` start-sorted, ``A``
  residual-sorted, machine books consistent),
- the Algorithm-1 line-1 identity ``m = M − Σ a_i.num`` (with ``M``
  shrunk by offline psets under fault injection),
- decision sanity: only queued jobs are started, within free capacity;
  only due dedicated jobs are promoted.

Wrap a policy while developing it::

    from repro.core.audit import AuditingScheduler
    runner = SimulationRunner(workload, AuditingScheduler(MyPolicy()))

Violations raise :class:`AuditViolation` at the cycle where the
corruption happens — instead of surfacing as a confusing downstream
symptom.  The whole registry is run under this wrapper in
``tests/test_invariant_audit.py``.
"""

from __future__ import annotations

from repro.core.base import CycleDecision, Scheduler, SchedulerContext


class AuditViolation(AssertionError):
    """An invariant or decision-sanity check failed."""


class AuditingScheduler(Scheduler):
    """Transparent policy decorator with per-cycle invariant checks."""

    def __init__(self, inner: Scheduler) -> None:
        super().__init__(elastic=inner.elastic)
        self.name = f"audited({inner.name})"
        self.handles_dedicated = inner.handles_dedicated
        self.inner = inner
        self.passes = 0  # cycle passes audited (diagnostics)

    # ------------------------------------------------------------------
    def _audit_state(self, ctx: SchedulerContext) -> None:
        try:
            ctx.batch_queue.check_invariants(allow_promoted_head=True)
            ctx.dedicated_queue.check_invariants()
            ctx.active.check_invariants(now=ctx.now)
            ctx.machine.check_invariants()
        except AssertionError as exc:
            raise AuditViolation(f"state invariant broken at t={ctx.now}: {exc}") from exc
        if ctx.free != ctx.machine.available - ctx.active.total_used:
            raise AuditViolation(
                f"m != M - offline - sum(a_i.num) at t={ctx.now}: "
                f"{ctx.free} vs {ctx.machine.available - ctx.active.total_used}"
            )

    def _audit_decision(self, ctx: SchedulerContext, decision: CycleDecision) -> None:
        queued_ids = {job.job_id for job in ctx.batch_queue}
        total = 0
        for job in decision.starts:
            if job.job_id not in queued_ids:
                raise AuditViolation(
                    f"{self.inner.name} started non-queued job {job.job_id} at t={ctx.now}"
                )
            total += job.num
        if total > ctx.free:
            raise AuditViolation(
                f"{self.inner.name} overcommitted at t={ctx.now}: "
                f"decision uses {total} of {ctx.free} free processors"
            )
        dedicated_ids = {job.job_id for job in ctx.dedicated_queue}
        for job in decision.promotions:
            if job.job_id not in dedicated_ids:
                raise AuditViolation(
                    f"promotion of non-dedicated-queued job {job.job_id}"
                )
            if job.requested_start is None or job.requested_start > ctx.now:
                raise AuditViolation(
                    f"premature promotion of job {job.job_id} "
                    f"(start {job.requested_start} > t={ctx.now})"
                )

    # ------------------------------------------------------------------
    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        self.passes += 1
        self._audit_state(ctx)
        decision = self.inner.cycle(ctx)
        self._audit_decision(ctx, decision)
        return decision


__all__ = ["AuditViolation", "AuditingScheduler"]
