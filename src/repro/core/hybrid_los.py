"""Hybrid-LOS — Algorithms 2 and 3 of the paper.

Extends Delayed-LOS to heterogeneous workloads: batch jobs are packed
for utilization *around* explicit reservations for dedicated
(interactive) jobs whose start times are rigid.

Per-pass logic (Algorithm 2; the runner loops each event to fix-point):

- no dedicated jobs waiting → plain Delayed-LOS (line 4);
- the dedicated head is due (``start <= t``) → move it to the head of
  the batch queue with ``scount = C_s`` so it starts as soon as
  capacity permits (Algorithm 3, lines 6–7 / 39–42);
- the dedicated head starts in the future → compute the dedicated
  freeze (lines 8–26, including the insufficient-capacity re-anchor)
  and pack batch jobs with ``Reservation_DP`` so none overruns the
  reserved capacity (lines 18–33); skipping the batch head increments
  its ``scount``.  When no job in the lookahead window has
  ``num <= m`` (the fit gate,
  :meth:`~repro.queues.batch_queue.BatchQueue.any_fits`), the DP would
  select nothing, so the freeze and the DP are skipped; the head's
  ``scount`` bump and its ``freeze-window`` explanation stay as for
  any empty selection;
- the batch head has exhausted its skips (``scount >= C_s``) → start
  it right away (lines 35–37).  The paper's pseudo-code omits the
  capacity check here; we guard it (a head larger than the free
  capacity physically cannot start) and fall back to dedicated-aware
  reservation packing until capacity frees up.

``C_s = 0`` yields LOS-D — the paper's "LOS appended with the
dedicated job queue" baseline: a fitting batch head starts right away,
and packing uses the dedicated-aware ``Reservation_DP`` otherwise.
The registry's ``LOS-D`` is this class pinned to ``C_s = 0``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import (
    REASON_FREEZE_WINDOW,
    REASON_INSUFFICIENT,
    CycleDecision,
    SchedulerContext,
)
from repro.core.delayed_los import DelayedLOS
from repro.core.dp import DEFAULT_LOOKAHEAD, reservation_dp_select
from repro.core.freeze import dedicated_freeze


class HybridLOS(DelayedLOS):
    """Algorithm 2: Hybrid_LOS_Scheduler for heterogeneous workloads."""

    name = "Hybrid-LOS"
    handles_dedicated = True

    def __init__(
        self,
        max_skip_count: int = 7,
        lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
        elastic: bool = False,
    ) -> None:
        super().__init__(
            max_skip_count=max_skip_count, lookahead=lookahead, elastic=elastic
        )

    # ------------------------------------------------------------------
    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        """One pass of Algorithm 2."""
        m = ctx.free
        batch = ctx.batch_queue
        dedicated = ctx.dedicated_queue

        if m > 0 and batch:
            if not dedicated:
                # Line 4: homogeneous situation — defer to Algorithm 1.
                return super().cycle(ctx)

            head = batch.head
            assert head is not None
            if head.scount >= self.max_skip_count:
                # Lines 35-37 (capacity-guarded, see module docstring).
                if head.num <= m:
                    return CycleDecision(starts=[head])
                if ctx.explain is not None:
                    ctx.explain(head, REASON_INSUFFICIENT)
                promotion = self._promotion(ctx)
                if promotion is not None:
                    return promotion
                return self._pack_around_dedicated(ctx, bump_scount=False)

            # Lines 5-34: scount < C_s with dedicated jobs waiting.
            promotion = self._promotion(ctx)
            if promotion is not None:
                # Lines 6-7: the dedicated head is due.
                return promotion
            return self._pack_around_dedicated(ctx, bump_scount=True)

        # Lines 39-42: no batch work possible; still honour due
        # dedicated start times.
        if dedicated:
            promotion = self._promotion(ctx)
            if promotion is not None:
                return promotion
        return CycleDecision.nothing()

    # ------------------------------------------------------------------
    def _promotion(self, ctx: SchedulerContext) -> Optional[CycleDecision]:
        """Algorithm 3: due dedicated head moves to the batch head with
        ``scount = C_s`` so it activates as soon as capacity permits."""
        promotion = self.due_dedicated_promotion(ctx)
        if promotion is not None:
            for job in promotion.promotions:
                job.scount = self.max_skip_count
        return promotion

    # ------------------------------------------------------------------
    def _pack_around_dedicated(
        self, ctx: SchedulerContext, bump_scount: bool
    ) -> CycleDecision:
        """Lines 8-33: Reservation_DP around the dedicated freeze."""
        batch = ctx.batch_queue
        head = batch.head
        assert head is not None
        m = ctx.free
        if batch.any_fits(m, self.lookahead):
            freeze = dedicated_freeze(ctx)
            starts, head_selected = reservation_dp_select(
                batch,
                m,
                freeze_capacity=freeze.frec,
                freeze_time=freeze.fret,
                now=ctx.now,
                granularity=ctx.machine.granularity,
                lookahead=self.lookahead,
            )
        else:
            # Fit gate: no window job has num <= m, so Reservation_DP
            # selects nothing whatever the freeze is.
            starts, head_selected = [], False
        if not head_selected:
            if bump_scount and ctx.allow_scount_increment:
                # Lines 22 / 30: skipping the batch head counts.
                head.scount += 1
            if ctx.explain is not None:
                # Held back by the dedicated reservation's freeze window.
                ctx.explain(head, REASON_FREEZE_WINDOW)
        return CycleDecision(starts=starts)


__all__ = ["HybridLOS"]
