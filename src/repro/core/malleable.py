"""Scheduler-initiated malleability — the Malleable-* policy family.

The paper's elasticity is strictly *job-initiated*: ECC records arrive
with the workload and the scheduler only reacts (§III-C).  Real
malleable systems invert the control flow — the *scheduler* decides
when to shrink or expand running jobs, to start the queue head sooner
or to soak idle capacity ("Evaluating Malleable Job Scheduling in HPC
Clusters using Real-World Workloads", PAPERS.md).  This module builds
that inversion on top of the existing ECC machinery: policies emit
*synthetic* EP/RP commands in :attr:`CycleDecision.commands
<repro.core.base.CycleDecision>` and the runner pushes them through
the very same :class:`~repro.core.elastic.ECCProcessor` path as
workload commands, so engine semantics, trace export, checkpointing
and the trace metrics oracle apply verbatim (docs/malleability.md).

Only jobs that declared a ``[min_procs, max_procs]`` range are ever
touched (``Job.is_malleable``); on an all-rigid workload every policy
here is bit-for-bit its inner policy.  Resizes are work-conserving
(linear speedup): shrinking a running job frees processors now but
stretches its residual runtime by ``old/new``, which is exactly the
trade-off the decision rules below weigh.

Decision rules (after the wrapped rigid policy finds nothing to do):

- **Shrink-to-start** (*average steal*): when the queue head does not
  fit, steal capacity as evenly as possible from the running malleable
  jobs — one granularity unit per donor per round, donors in job-id
  order — until the head fits.  All-or-nothing: if the donors cannot
  cover the deficit even at their minima, nobody shrinks.
- **Agreement threshold**: the steal only proceeds when at least a
  ``agreement`` fraction of the running malleable jobs can donate
  (have slack above their minimum) — the donors must "agree" as a
  population, not be bled one by one.
- **Expand-to-soak** (*pref common pool*): when the batch queue is
  empty and processors idle, grow running malleable jobs toward their
  preferred size first (in job-id order), then — for
  :class:`MalleableBackfill` — toward their maxima.

>>> from repro.core.registry import make_scheduler
>>> make_scheduler("Malleable-FCFS").malleable
True
>>> make_scheduler("Malleable-Backfill").handles_dedicated
False
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.base import (
    REASON_SHRINK_INFEASIBLE,
    CycleDecision,
    Scheduler,
    SchedulerContext,
)
from repro.core.easy import EasyBackfill
from repro.core.fcfs import FCFS
from repro.workload.ecc import ECC, ECCKind
from repro.workload.job import Job


def _floor_to(value: int, gran: int) -> int:
    return (value // gran) * gran


def _ceil_to(value: int, gran: int) -> int:
    return -(-value // gran) * gran


def shrink_floor(job: Job, gran: int) -> int:
    """Smallest size ``job`` may shrink to (granularity-snapped).

    ``min_procs`` rounded *up* to the allocation granularity — never
    below one unit — so every admissible size stays allocatable.
    """
    assert job.min_procs is not None
    return max(gran, _ceil_to(job.min_procs, gran))


def expand_ceiling(job: Job, gran: int, machine_size: int) -> int:
    """Largest size ``job`` may grow to (granularity-snapped)."""
    assert job.max_procs is not None
    return min(machine_size, _floor_to(job.max_procs, gran))


def plan_average_steal(
    donors: List[Job], need: int, gran: int
) -> Optional[Dict[int, int]]:
    """Distribute a ``need``-processor steal evenly over ``donors``.

    Round-robin over the donors in list order, one granularity unit
    per donor per round, skipping donors already at their shrink
    floor.  All-or-nothing: returns ``None`` when the donors' combined
    slack cannot cover ``need`` — a partial steal would slow donors
    down without starting anything.

    Returns:
        job_id -> processors to steal (each a positive multiple of
        ``gran``), or ``None``.

    >>> from repro.workload.job import Job
    >>> a = Job(1, 0.0, num=128, estimate=100.0, min_procs=32, max_procs=128)
    >>> b = Job(2, 0.0, num=64, estimate=100.0, min_procs=32, max_procs=64)
    >>> plan_average_steal([a, b], need=96, gran=32)
    {1: 64, 2: 32}
    >>> plan_average_steal([a, b], need=160, gran=32) is None
    True
    """
    if need <= 0:
        return None
    slack = [job.num - shrink_floor(job, gran) for job in donors]
    if sum(slack) < need:
        return None
    need_units = math.ceil(need / gran)
    stolen = [0] * len(donors)
    while need_units > 0:
        progressed = False
        for index in range(len(donors)):
            if need_units == 0:
                break
            if slack[index] - stolen[index] * gran >= gran:
                stolen[index] += 1
                need_units -= 1
                progressed = True
        assert progressed, "slack check guarantees progress"
    return {
        donor.job_id: units * gran
        for donor, units in zip(donors, stolen)
        if units
    }


class _MalleableBase(Scheduler):
    """Shared mechanics of the Malleable-* family.

    Wraps a rigid *inner* policy and acts only when the inner pass is
    empty, so the family is a strict superset: every start the inner
    policy would make is made, and malleability only spends capacity
    the inner policy proved it cannot use.

    Args:
        inner: The rigid policy whose decisions are passed through.
        expand: Idle-capacity soaking mode — ``"none"``, ``"pref"``
            (grow to preferred sizes) or ``"max"`` (then on to maxima).
        agreement: Minimum fraction of running malleable jobs that
            must have donatable slack before any shrink proceeds
            (0.0 disables the gate).
    """

    handles_dedicated = False
    malleable = True

    def __init__(
        self,
        inner: Scheduler,
        *,
        expand: str = "none",
        agreement: float = 0.0,
        elastic: bool = True,
    ) -> None:
        if expand not in ("none", "pref", "max"):
            raise ValueError(f"expand must be none/pref/max, got {expand!r}")
        if not 0.0 <= agreement <= 1.0:
            raise ValueError(f"agreement must be in [0, 1], got {agreement}")
        class_name = type(self).name
        super().__init__(elastic=elastic)
        # The registry key is the canonical spelling; the base class
        # appended "-E" for the elastic flag, which the family's names
        # already imply.
        self.name = class_name
        self.inner = inner
        self.expand = expand
        self.agreement = agreement

    # ------------------------------------------------------------------
    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        decision = self.inner.cycle(ctx)
        if not decision.is_empty():
            return decision
        head = ctx.batch_queue.head
        if head is not None:
            return self._try_shrink_to_start(ctx, head)
        if self.expand != "none":
            return self._try_expand(ctx)
        return CycleDecision.nothing()

    # ------------------------------------------------------------------
    def _running_malleable(self, ctx: SchedulerContext) -> List[Job]:
        """Resizable running jobs, in deterministic job-id order.

        Jobs at their kill-by instant are excluded — their finish
        event fires before this cycle's commands could matter.
        """
        now = ctx.now
        jobs = [
            job
            for job in ctx.active
            if job.is_malleable and job.start_time is not None
            and job.start_time + job.estimate > now
        ]
        jobs.sort(key=lambda job: job.job_id)
        return jobs

    def _try_shrink_to_start(
        self, ctx: SchedulerContext, head: Job
    ) -> CycleDecision:
        need = head.num - ctx.free
        if need <= 0:
            # The inner policy chose not to start a fitting head (it
            # never does today — both FCFS and EASY start it), so
            # there is nothing for malleability to fix.
            return CycleDecision.nothing()
        gran = ctx.machine.granularity
        running = self._running_malleable(ctx)
        donors = [job for job in running if job.num > shrink_floor(job, gran)]
        if not donors:
            if ctx.explain is not None:
                ctx.explain(head, REASON_SHRINK_INFEASIBLE)
            return CycleDecision.nothing()
        if self.agreement > 0.0 and len(donors) < self.agreement * len(running):
            if ctx.explain is not None:
                ctx.explain(head, REASON_SHRINK_INFEASIBLE)
            return CycleDecision.nothing()
        plan = plan_average_steal(donors, need, gran)
        if plan is None:
            if ctx.explain is not None:
                ctx.explain(head, REASON_SHRINK_INFEASIBLE)
            return CycleDecision.nothing()
        commands = [
            ECC(
                job_id=job_id,
                issue_time=ctx.now,
                kind=ECCKind.REDUCE_PROCS,
                amount=amount,
            )
            for job_id, amount in plan.items()
        ]
        # The steal covers the deficit by construction, so the head
        # starts in the same decision — commands apply first.
        return CycleDecision(starts=[head], commands=commands)

    def _try_expand(self, ctx: SchedulerContext) -> CycleDecision:
        gran = ctx.machine.granularity
        free = ctx.free
        if free < gran:
            return CycleDecision.nothing()
        machine_size = ctx.machine.total
        commands: List[ECC] = []
        # Phase 1 — pref common pool: everyone reaches their preferred
        # size before anyone grows past it.
        for job in self._running_malleable(ctx):
            assert job.pref_procs is not None
            target = min(
                max(job.num, _floor_to(job.pref_procs, gran)),
                expand_ceiling(job, gran, machine_size),
            )
            grow = min(target - job.num, _floor_to(free, gran))
            if grow >= gran:
                commands.append(
                    ECC(
                        job_id=job.job_id,
                        issue_time=ctx.now,
                        kind=ECCKind.EXTEND_PROCS,
                        amount=grow,
                    )
                )
                free -= grow
                if free < gran:
                    return CycleDecision(commands=commands)
        if self.expand != "max":
            if commands:
                return CycleDecision(commands=commands)
            return CycleDecision.nothing()
        # Phase 2 — spend what is left pushing jobs toward their maxima.
        granted = {ecc.job_id: ecc.amount for ecc in commands}
        merged: List[ECC] = []
        for job in self._running_malleable(ctx):
            current = job.num + int(granted.get(job.job_id, 0))
            ceiling = expand_ceiling(job, gran, machine_size)
            grow = min(ceiling - current, _floor_to(free, gran))
            if grow >= gran:
                granted[job.job_id] = granted.get(job.job_id, 0) + grow
                free -= grow
            if granted.get(job.job_id):
                merged.append(
                    ECC(
                        job_id=job.job_id,
                        issue_time=ctx.now,
                        kind=ECCKind.EXTEND_PROCS,
                        amount=granted.pop(job.job_id),
                    )
                )
            if free < gran:
                break
        if merged:
            return CycleDecision(commands=merged)
        return CycleDecision.nothing()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} inner={self.inner.name!r}>"


class MalleableFCFS(_MalleableBase):
    """FCFS plus shrink-to-start: running jobs donate down to their
    minima (average steal, all-or-nothing) whenever that lets the
    queue head start now.  No backfilling, no idle-capacity soaking —
    the cleanest demonstration of scheduler-initiated shrinking.
    """

    name = "Malleable-FCFS"

    def __init__(self, elastic: bool = True) -> None:
        super().__init__(FCFS(), expand="none", agreement=0.0, elastic=elastic)


class MalleableBackfill(_MalleableBase):
    """EASY backfill plus both malleability directions: shrink running
    jobs to start the head when backfilling cannot, and expand them
    toward preferred then maximum sizes (pref common pool) when the
    queue is empty and processors idle.
    """

    name = "Malleable-Backfill"

    def __init__(self, elastic: bool = True) -> None:
        super().__init__(
            EasyBackfill(), expand="max", agreement=0.0, elastic=elastic
        )


class MalleableAgreement(_MalleableBase):
    """:class:`MalleableBackfill` with an agreement gate on shrinking:
    the steal proceeds only when at least ``agreement`` (default half)
    of the running malleable jobs have donatable slack, and expansion
    stops at preferred sizes.  Models co-operative malleability where
    jobs are not squeezed unless the running population can spread the
    cost.
    """

    name = "Malleable-Agreement"

    def __init__(self, agreement: float = 0.5, elastic: bool = True) -> None:
        super().__init__(
            EasyBackfill(), expand="pref", agreement=agreement, elastic=elastic
        )


__all__ = [
    "MalleableAgreement",
    "MalleableBackfill",
    "MalleableFCFS",
    "expand_ceiling",
    "plan_average_steal",
    "shrink_floor",
]
