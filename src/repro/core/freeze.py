"""Freeze (shadow) time and capacity computations.

The LOS family makes one reservation per cycle and packs jobs around
it.  Two kinds of reservation appear in the paper:

- the *batch-head* reservation of Algorithm 1 lines 13–15 (identical
  to the EASY/LOS shadow time: the earliest instant enough running
  jobs have terminated for the head job to fit), and
- the *dedicated* reservation of Algorithm 2 lines 8–26, anchored at
  the rigid requested start of the dedicated head group (all dedicated
  jobs sharing that start time), with a fallback anchor when even the
  whole machine cannot host the group at its requested start.

Both produce a :class:`FreezeSpec` consumed by
:func:`repro.core.dp.reservation_dp` and by EASY's backfill test.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.base import SchedulerContext
from repro.workload.job import Job


class FreezeSpec(NamedTuple):
    """One reservation: nothing may overrun it beyond ``frec``.

    Attributes:
        fret: Freeze end time (the paper's ``fret_b`` / ``fret_d``;
            the shadow time of [7]).
        frec: Freeze end capacity — processors that remain free at
            ``fret`` *after* honouring the reservation; jobs running
            past ``fret`` must fit inside it.
        sufficient: For dedicated reservations: whether the requested
            start time could be honoured (Algorithm 2 line 17).  False
            means the dedicated group will start late — "unavoidable
            due to insufficient capacity" (§III-B).
    """

    fret: float
    frec: int
    sufficient: bool = True


def batch_head_freeze(ctx: SchedulerContext, head: Job) -> FreezeSpec:
    """Algorithm 1 lines 13–15: reservation for a too-big head job.

    Finds the smallest ``s`` such that the head fits once the ``s``
    shortest-residual running jobs have terminated, then::

        fret_b = t + a_s.res
        frec_b = m + Σ_{i=1..s} a_i.num − w_1^b.num

    Requires ``head.num > ctx.free`` (otherwise no reservation is
    needed) and relies on the active list's residual ordering.
    """
    m = ctx.free
    if head.num <= m:
        raise ValueError(
            f"head job {head.job_id} fits free capacity ({head.num} <= {m}); "
            "no reservation needed"
        )
    cumulative = 0
    for active_job in ctx.active:
        cumulative += active_job.num
        if m + cumulative >= head.num:
            return FreezeSpec(
                fret=ctx.now + active_job.residual(ctx.now),
                frec=m + cumulative - head.num,
                sufficient=True,
            )
    if ctx.machine.offline:
        # Degraded machine (fault injection): even a full drain cannot
        # host the head until psets are repaired.  Anchor at the last
        # termination with zero freeze capacity — nothing may backfill
        # past it — and let repairs re-trigger the cycle.
        last = ctx.active.last()
        anchor = ctx.now + (last.residual(ctx.now) if last is not None else 0.0)
        return FreezeSpec(fret=anchor, frec=0, sufficient=False)
    # Unreachable when job sizes are validated against the machine:
    # m + Σ all active = M >= head.num.
    raise AssertionError(
        f"head job {head.job_id} (num={head.num}) cannot fit machine "
        f"(free={m}, active={cumulative})"
    )


def dedicated_freeze(ctx: SchedulerContext) -> FreezeSpec:
    """Algorithm 2 lines 8–30: reservation for the dedicated head group.

    Computes the capacity free at the dedicated head's requested start
    (``frec_d``), reserves the whole same-start group
    (``tot_start_num``), and — when the group cannot fit at its
    requested start — re-anchors the freeze at the earliest instant
    enough running jobs have terminated (lines 24–26), accepting the
    unavoidable delay.

    Requires a non-empty dedicated queue with a future head start.
    """
    dedicated = ctx.dedicated_queue
    now = ctx.now
    head = dedicated.head
    if head is None:
        raise ValueError("dedicated queue is empty")
    start = head.requested_start
    assert start is not None
    if start <= now:
        raise ValueError(
            f"dedicated head {head.job_id} is already due "
            f"(start={start} <= t={now}); promote it instead"
        )

    # Offline psets (fault injection) are unavailable to reservations;
    # optimistically assuming their repair would overcommit the freeze.
    machine_size = ctx.machine.available
    active = ctx.active
    last = active.last()

    # Lines 9–15: capacity free at the requested start.
    if last is not None and start <= now + last.residual(now):
        # A running job's kill-by never precedes the clock, so
        # "t + res >= start" is exactly "kill_by >= start" here
        # (start > t is checked above) — answerable from the active
        # list's aggregated release steps without scanning every job.
        still_running = active.used_at(start)
        frec = machine_size - still_running
    else:
        frec = machine_size

    # Lines 16–17: the whole identical-start head group is reserved
    # together.
    group = dedicated.cohead_group()
    tot_start_num = group[0].num if len(group) == 1 else sum(job.num for job in group)

    if tot_start_num <= frec:
        # Lines 18–22: reservation honoured on time.
        return FreezeSpec(fret=start, frec=frec - tot_start_num, sufficient=True)

    # Lines 24–26: insufficient capacity at the requested start; anchor
    # at the earliest instant the group fits.  When the group exceeds
    # the machine itself, fall back to the last termination with zero
    # freeze capacity (everything must drain first).
    m = ctx.free
    cumulative = 0
    for active_job in ctx.active:
        cumulative += active_job.num
        if m + cumulative >= tot_start_num:
            return FreezeSpec(
                fret=ctx.now + active_job.residual(ctx.now),
                frec=m + cumulative - tot_start_num,
                sufficient=False,
            )
    anchor = ctx.now + (last.residual(ctx.now) if last is not None else 0.0)
    return FreezeSpec(fret=anchor, frec=max(0, machine_size - tot_start_num), sufficient=False)


__all__ = ["FreezeSpec", "batch_head_freeze", "dedicated_freeze"]
