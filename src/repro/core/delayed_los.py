"""Delayed-LOS — Algorithm 1 of the paper.

The paper's first contribution: LOS starts the head job *immediately*
whenever it fits, which is "too aggressive" — Figure 2's example shows
a 7-processor head beating a {4, 6} pair on a 10-processor machine.
Delayed-LOS lets ``Basic_DP`` pick the utilization-maximizing set and
only falls back to starting the head unconditionally after the head
has been skipped ``C_s`` times (the *maximum skip count* threshold):

- head fits and ``scount >= C_s`` → activate the head right away
  (lines 3–5),
- head fits and ``scount < C_s`` → ``Basic_DP``; skipping the head
  increments ``scount`` (lines 6–11),
- head does not fit → batch-head reservation + ``Reservation_DP``
  (lines 12–20), exactly as LOS.  When no job in the lookahead window
  has ``num <= m`` (:meth:`~repro.queues.batch_queue.BatchQueue.any_fits`,
  the *fit gate*), the DP would select nothing whatever the
  reservation is, so neither the freeze nor the DP is computed.

``C_s = 0`` degenerates to LOS [7] itself: the ``scount >= C_s``
branch always fires when the head fits, so ``Basic_DP`` is never
consulted and the reservation branch is untouched.  The registry's
``LOS`` is therefore this class pinned to ``C_s = 0`` — one audited
code path for the whole family (DESIGN.md §4).
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import (
    REASON_DP_EXCLUDED,
    REASON_INSUFFICIENT,
    CycleDecision,
    Scheduler,
    SchedulerContext,
)
from repro.core.dp import DEFAULT_LOOKAHEAD, basic_dp_select, reservation_dp_select
from repro.core.freeze import batch_head_freeze


class DelayedLOS(Scheduler):
    """Algorithm 1: Delayed_LOS_Batch_Scheduler.

    Args:
        max_skip_count: The paper's ``C_s`` threshold.  §V-A finds an
            optimum around 7–8 for ``P_S = 0.5`` workloads; the knee
            shifts to ~3 for small-job-heavy mixes (``P_S = 0.8``).
        lookahead: DP queue window (50 in [7]); None for the whole
            queue, else at least 1.
        elastic: Append the ECC processor ("Delayed-LOS-E").
    """

    name = "Delayed-LOS"

    def __init__(
        self,
        max_skip_count: int = 7,
        lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
        elastic: bool = False,
    ) -> None:
        if max_skip_count < 0:
            raise ValueError(f"C_s must be non-negative, got {max_skip_count}")
        if lookahead is not None and lookahead < 1:
            raise ValueError(f"lookahead must be at least 1, got {lookahead}")
        super().__init__(elastic=elastic)
        self.max_skip_count = int(max_skip_count)
        self.lookahead = lookahead

    # ------------------------------------------------------------------
    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        """One pass of Algorithm 1 (the runner loops to fix-point)."""
        m = ctx.free
        batch = ctx.batch_queue
        if m <= 0 or not batch:
            return CycleDecision.nothing()
        head = batch.head
        assert head is not None

        if head.num <= m:
            if head.scount >= self.max_skip_count:
                # Lines 3-5: the head has been skipped C_s times; bound
                # its waiting time by activating it right away.
                return CycleDecision(starts=[head])
            # Lines 6-11: pack for maximum instantaneous utilization.
            selection = basic_dp_select(
                batch,
                m,
                granularity=ctx.machine.granularity,
                lookahead=self.lookahead,
            )
            if not selection.head_selected:
                if ctx.allow_scount_increment:
                    head.scount += 1
                if ctx.explain is not None:
                    ctx.explain(head, REASON_DP_EXCLUDED)
            return CycleDecision(starts=selection.jobs)

        # Lines 12-20: head cannot fit; reserve it at the freeze end
        # time and fill the holes without overrunning the reservation.
        if ctx.explain is not None:
            ctx.explain(head, REASON_INSUFFICIENT)
        if not batch.any_fits(m, self.lookahead):
            # Fit gate: no window job has num <= m, so Reservation_DP
            # selects nothing whatever the freeze is.
            return CycleDecision.nothing()
        freeze = batch_head_freeze(ctx, head)
        selection = reservation_dp_select(
            ctx.batch_queue,
            m,
            freeze_capacity=freeze.frec,
            freeze_time=freeze.fret,
            now=ctx.now,
            granularity=ctx.machine.granularity,
            lookahead=self.lookahead,
        )
        return CycleDecision(starts=selection.jobs)


__all__ = ["DelayedLOS"]
