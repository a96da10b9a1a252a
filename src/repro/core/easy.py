"""EASY backfill (Mu'alem & Feitelson [6]) and its -D layer (§V).

Aggressive backfilling: the head job starts as soon as it fits; when
it does not fit, a *shadow* reservation is computed for it (the
earliest instant enough running jobs terminate) and any later queued
job may start now provided it does not delay the head — i.e. it either
terminates by the shadow time or fits into the "extra" processors that
remain free at the shadow time after the head is placed.

The shadow computation is shared with the LOS family
(:func:`repro.core.freeze.batch_head_freeze` — the paper calls the
same quantities freeze end time/capacity).  The shadow is computed
only when some queued job has ``num <= m`` (the fit gate,
:meth:`~repro.queues.batch_queue.BatchQueue.any_fits`): with none, no
shadow could admit a backfill.  Decision provenance (``ctx.explain``)
does not change the pick; it only walks the jobs ahead of it to report
why each was passed over.

EASY-D is the paper's "EASY appended with the dedicated job queue":
``EasyBackfill(dedicated=True)``.  While dedicated jobs wait, a due
dedicated head is promoted to the batch head first (Algorithm 3), and
the dedicated freeze (:func:`repro.core.freeze.dedicated_freeze`) is
one more reservation every start must respect.  A head that fits but
would overrun it waits (``freeze-window``), and only jobs that end
before the dedicated start may pass it.  With no dedicated job
waiting, the -D layer does nothing.

Each ``cycle`` pass emits at most one start; the runner's fix-point
loop re-invokes until quiescent, so the shadow is recomputed against
real state after every activation.  This is equivalent to the classic
single-scan formulation (each started job joins the active list and
shrinks the recomputed extra capacity exactly as the scan's local
bookkeeping would) and keeps the policy trivially auditable.
"""

from __future__ import annotations

from repro.core.base import (
    REASON_FREEZE_WINDOW,
    REASON_INSUFFICIENT,
    REASON_RESERVATION,
    CycleDecision,
    Scheduler,
    SchedulerContext,
)
from repro.core.freeze import batch_head_freeze, dedicated_freeze
from repro.obs.spans import begin as _span_begin, end as _span_end
from repro.obs.telemetry import bump


class EasyBackfill(Scheduler):
    """EASY: FCFS plus aggressive backfilling against the head job.

    Args:
        elastic: Append the ECC processor ("EASY-E").
        dedicated: Append the dedicated job queue ("EASY-D"); the
            runner refuses dedicated jobs without it.
    """

    name = "EASY"

    def __init__(self, elastic: bool = False, dedicated: bool = False) -> None:
        if dedicated:
            self.name = "EASY-D"
            self.handles_dedicated = True
        super().__init__(elastic=elastic)

    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        freeze = None
        if ctx.dedicated_queue:
            promotion = self.due_dedicated_promotion(ctx)
            if promotion is not None:
                return promotion
            if ctx.batch_queue and ctx.free > 0:
                freeze = dedicated_freeze(ctx)
        queue = ctx.batch_queue
        head = queue.head
        if head is None:
            return CycleDecision.nothing()
        m = ctx.free
        if head.num <= m:
            if (
                freeze is None
                or ctx.now + head.estimate <= freeze.fret
                or head.num <= freeze.frec
            ):
                return CycleDecision(starts=[head])
            # The head fits but would overrun the dedicated
            # reservation.  Only jobs that end before the dedicated
            # start provably delay nothing: the reservation with no
            # spare processors.  The head itself does not end in time,
            # so it never qualifies.
            reason, reservations = REASON_FREEZE_WINDOW, ((freeze.fret, 0),)
        else:
            reason, reservations = REASON_INSUFFICIENT, None
        explain = ctx.explain
        if explain is not None:
            explain(head, reason)
        if len(queue) == 1 or m <= 0:
            return CycleDecision.nothing()

        token = _span_begin("backfill")
        try:
            job, attempts = None, 0
            # Fit gate: with no queued job of num <= m, no shadow can
            # admit a backfill, so the freeze is skipped.
            if queue.any_fits(m):
                if reservations is None:
                    shadow = batch_head_freeze(ctx, head)
                    reservations = ((shadow.fret, shadow.frec),)
                    if freeze is not None:
                        reservations += ((freeze.fret, freeze.frec),)
                # Size-indexed pick: the queue's buckets answer "first
                # job in queue order with num <= m that ends by every
                # reservation or fits its extra processors" exactly,
                # and count the fitting jobs a queue-order scan visits.
                # The head never qualifies: it is wider than m or
                # overruns the dedicated freeze.  Under saturation this
                # skips the too-wide majority of a deep backlog
                # (docs/performance.md).
                job, attempts = queue.first_backfill(m, ctx.now, reservations)
            bump("backfill_attempts", attempts)
            if explain is not None:
                # Decision provenance: every job the scan passes over
                # ahead of the pick (or in the whole tail) is reported.
                tail = iter(queue)
                next(tail)  # skip the head
                for queued in tail:
                    if queued is job:
                        break
                    explain(
                        queued,
                        REASON_INSUFFICIENT if queued.num > m else REASON_RESERVATION,
                    )
            if job is None:
                return CycleDecision.nothing()
            bump("backfill_starts")
            return CycleDecision(starts=[job])
        finally:
            _span_end(token)


__all__ = ["EasyBackfill"]
