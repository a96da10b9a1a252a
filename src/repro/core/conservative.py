"""Conservative backfill.

The cautious sibling of EASY discussed in the related work (§II-B):
*every* queued job gets a reservation, and a job may move ahead only
if it delays none of them.  Implemented by planning the whole queue
against a :class:`~repro.core.profile.CapacityProfile` each cycle and
starting exactly the jobs whose planned start is *now*.

Replanning every cycle is the standard simulator formulation: earlier-
than-estimated terminations compact the plan automatically (estimates
only ever over-state occupancy, so replanning never pushes a job past
a previously promised start).
"""

from __future__ import annotations

from repro.core.base import CycleDecision, Scheduler, SchedulerContext
from repro.core.profile import CapacityProfile


class ConservativeBackfill(Scheduler):
    """Backfill that never delays any queued job's planned start."""

    name = "CONSERVATIVE"

    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        queue = ctx.batch_queue.jobs()
        if not queue:
            return CycleDecision.nothing()
        # Plan against the *available* capacity: offline psets (fault
        # injection) must not be promised to future reservations.
        capacity = ctx.machine.available
        profile = CapacityProfile.from_active(capacity, ctx.now, ctx.active)
        starts = []
        for job in queue:
            if job.num > capacity:
                # Wider than the online machine: no plan can hold it
                # until a repair returns capacity (which re-runs the
                # cycle), so it takes no reservation meanwhile.
                continue
            start = profile.earliest_start(job.num, job.estimate)
            profile.reserve(start, job.num, job.estimate)
            if start <= ctx.now:
                starts.append(job)
        return CycleDecision(starts=starts)


__all__ = ["ConservativeBackfill"]
