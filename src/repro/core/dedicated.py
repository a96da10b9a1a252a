"""Dedicated-queue baselines: EASY-D and LOS-D (§V, Table III).

The paper makes the baselines comparable with Hybrid-LOS by "appending
the EASY and LOS algorithms with the dedicated job queue": batch jobs
are scheduled around the rigid dedicated reservations, and due
dedicated jobs are promoted to the batch-queue head exactly as in
Algorithm 3.

``LOS-D`` falls out of the same unification as LOS: Hybrid-LOS with
``C_s = 0`` starts the batch head right away whenever it fits and
packs with the dedicated-aware ``Reservation_DP`` otherwise — which
*is* LOS extended with the dedicated queue.

``EASY-D`` augments EASY's backfill test with the dedicated freeze:
a job may start now only if it does not delay the batch head (shadow
test) *and* does not overrun the dedicated reservation (ends before
the dedicated freeze end time or fits its freeze capacity).  The
freeze is recomputed from live state every pass, so capacity consumed
by earlier backfills is accounted automatically.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import CycleDecision, Scheduler, SchedulerContext
from repro.core.dp import DEFAULT_LOOKAHEAD
from repro.core.freeze import FreezeSpec, batch_head_freeze, dedicated_freeze
from repro.core.hybrid_los import HybridLOS
from repro.workload.job import Job


class LOSDedicated(HybridLOS):
    """LOS-D: LOS appended with the dedicated job queue."""

    name = "LOS-D"

    def __init__(
        self,
        lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
        elastic: bool = False,
    ) -> None:
        super().__init__(max_skip_count=0, lookahead=lookahead, elastic=elastic)


class EasyBackfillDedicated(Scheduler):
    """EASY-D: EASY backfilling around rigid dedicated reservations."""

    name = "EASY-D"
    handles_dedicated = True

    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        promotion = self.due_dedicated_promotion(ctx)
        if promotion is not None:
            return promotion

        queue = ctx.batch_queue
        head = queue.head
        if head is None:
            return CycleDecision.nothing()
        m = ctx.free
        if m <= 0:
            return CycleDecision.nothing()

        ded_freeze = dedicated_freeze(ctx) if ctx.dedicated_queue else None

        if head.num <= m:
            if self._respects_dedicated(ctx, head, ded_freeze):
                return CycleDecision(starts=[head])
            # The head fits but would overrun the dedicated
            # reservation: it is blocked by the reservation itself.
            # Backfill conservatively — only jobs that terminate before
            # the dedicated start can provably delay nothing, i.e. the
            # reservation with no spare processors.  The head itself
            # does not terminate in time, so it never qualifies.
            assert ded_freeze is not None
            reservations = [(ded_freeze.fret, 0)]
        elif len(queue) == 1:
            return CycleDecision.nothing()
        else:
            # Head is capacity-blocked (so it never qualifies): classic
            # EASY shadow for the head, plus the dedicated constraint
            # on every backfill candidate.
            shadow = batch_head_freeze(ctx, head)
            reservations = [(shadow.fret, shadow.frec)]
            if ded_freeze is not None:
                reservations.append((ded_freeze.fret, ded_freeze.frec))
        job, _ = queue.first_backfill(m, ctx.now, reservations)
        return CycleDecision.nothing() if job is None else CycleDecision(starts=[job])

    # ------------------------------------------------------------------
    @staticmethod
    def _respects_dedicated(
        ctx: SchedulerContext, job: Job, freeze: Optional[FreezeSpec]
    ) -> bool:
        """Whether starting ``job`` now overruns the dedicated freeze."""
        if freeze is None:
            return True
        return ctx.now + job.estimate <= freeze.fret or job.num <= freeze.frec


__all__ = ["EasyBackfillDedicated", "LOSDedicated"]
