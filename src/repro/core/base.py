"""Scheduler interface shared by every policy.

Policies are *pure deciders*: the simulation runner owns the machine,
the queues and the clock, builds a :class:`SchedulerContext` snapshot
at every scheduling event, and applies the returned
:class:`CycleDecision`.  The only job field a policy mutates is
``scount`` — exactly the state the paper's Notations box attaches to
queued jobs.

The runner re-invokes ``cycle`` until a pass makes no decision (a
fix-point): the Cs-exceeded branch of Algorithm 1 activates *only the
head job*, and remaining capacity must then be offered to the next
head / the DP again within the same event.  ``allow_scount_increment``
is true only on the first pass of an event so a skip counts once per
scheduling cycle, matching "scount ... is incremented by one at every
scheduling cycle".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

from repro.cluster.machine import Machine
from repro.queues.active_list import ActiveList
from repro.queues.batch_queue import BatchQueue
from repro.queues.dedicated_queue import DedicatedQueue
from repro.workload.ecc import ECC
from repro.workload.job import Job

# ----------------------------------------------------------------------
# Decision-provenance reason codes
# ----------------------------------------------------------------------
# Why a queued job was passed over this cycle.  Policies report these
# through ``SchedulerContext.explain`` (set by the runner only when
# decision recording is on, so the default path costs one ``None``
# check); the runner dedups and emits them as ``decision`` records in
# the ``repro.trace/1`` stream, rendered by ``repro explain --job N``.
# The full catalog lives in docs/observability.md.

#: The job (or backfill candidate) needs more processors than are free.
REASON_INSUFFICIENT = "insufficient-free-procs"
#: A backfill candidate fits now but would delay the head's reservation.
REASON_RESERVATION = "reservation-block"
#: The DP selection maximizing utilization left the job out this cycle.
REASON_DP_EXCLUDED = "dp-excluded"
#: Starting the job would collide with a dedicated-job freeze window.
REASON_FREEZE_WINDOW = "freeze-window"
#: A Malleable-* policy could not free enough capacity by shrinking.
REASON_SHRINK_INFEASIBLE = "malleable-shrink-infeasible"
#: The job crashed and is waiting out its retry backoff.
REASON_FAULT_BACKOFF = "fault-backoff"

#: Every reason code a policy or the runner may report (docs catalog +
#: ``tools/check_counter_catalog.py`` cross-check this tuple).
DECISION_REASONS = (
    REASON_INSUFFICIENT,
    REASON_RESERVATION,
    REASON_DP_EXCLUDED,
    REASON_FREEZE_WINDOW,
    REASON_SHRINK_INFEASIBLE,
    REASON_FAULT_BACKOFF,
)


@dataclass(slots=True)
class SchedulerContext:
    """Scheduler-visible snapshot at one scheduling instant.

    Attributes:
        now: Current simulation time ``t``.
        machine: The machine (for ``M`` and free capacity ``m``).
        batch_queue: ``W^b`` in FIFO order.
        dedicated_queue: ``W^d`` sorted by requested start.
        active: ``A`` sorted by increasing residual.
        allow_scount_increment: True on the first ``cycle`` pass of an
            event; policies must not bump ``scount`` on later passes.
    """

    now: float
    machine: Machine
    batch_queue: BatchQueue
    dedicated_queue: DedicatedQueue
    active: ActiveList
    allow_scount_increment: bool = True
    #: Memoized ``free``; policies read it several times per pass and
    #: the runner reuses one context across passes, resetting this
    #: after applying a decision (see :meth:`invalidate_free`).
    _free: Optional[int] = field(default=None, repr=False, compare=False)
    #: Decision-provenance sink, ``callable(job, reason)`` with
    #: ``reason`` one of :data:`DECISION_REASONS`.  ``None`` (the
    #: default) unless the runner is recording decision records, so
    #: policies guard with ``if ctx.explain is not None`` and the
    #: common path stays observation-free.
    explain: Optional[Callable[[Job, str], None]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def free(self) -> int:
        """The paper's ``m`` — free processors at ``t``.

        Computed as ``M - offline - Σ a_i.num`` (Algorithm 1 line 1,
        with ``M`` shrunk by psets currently failed under fault
        injection — zero on the fault-free path); the machine's own
        bookkeeping agrees by the allocation invariants
        (``Machine.check_invariants``).  Cached: capacity cannot
        change while a pass is deciding, and the runner invalidates
        between passes.
        """
        m = self._free
        if m is None:
            machine = self.machine
            m = machine.total - machine._offline_procs - self.active.total_used
            self._free = m
        return m

    def invalidate_free(self) -> None:
        """Drop the cached ``free`` after capacity changed (runner use)."""
        self._free = None


class CycleDecision(NamedTuple):
    """What one scheduler pass wants done (read-only).

    Attributes:
        starts: Batch-queue jobs to activate *now*, in activation
            order.  The runner allocates processors, stamps
            ``start_time`` and moves them to the active list.
        promotions: Dedicated-queue jobs to move to the head of the
            batch queue with ``scount = C_s`` (Algorithm 3).  Applied
            before ``starts``.
        commands: Synthetic Elastic Control Commands a *malleable*
            policy wants applied to running jobs (shrink/expand; see
            :mod:`repro.core.malleable`, docs/malleability.md).
            Applied first — before promotions and starts — through the
            run's :class:`~repro.core.elastic.ECCProcessor`, so a
            shrink's freed capacity is visible to the same decision's
            starts.  Non-malleable policies never populate this.
    """

    starts: Sequence[Job] = ()
    promotions: Sequence[Job] = ()
    commands: Sequence[ECC] = ()

    def is_empty(self) -> bool:
        """Whether the pass reached a fix-point."""
        return not self.starts and not self.promotions and not self.commands

    @staticmethod
    def nothing() -> "CycleDecision":
        """The empty decision (terminates the runner's cycle loop).

        Returns a shared instance.  Policies reach a fix-point on
        every scheduling event, so this is the single most-constructed
        decision.
        """
        return _NOTHING


_NOTHING = CycleDecision()


class Scheduler(abc.ABC):
    """Base class of all scheduling policies.

    Attributes:
        name: Registry/display name (Table III spelling).
        handles_dedicated: Whether the policy manages ``W^d``; the
            runner refuses heterogeneous workloads otherwise.
        elastic: Whether the runner should apply Elastic Control
            Commands (the "-E" variants append the ECC processor; the
            scheduling logic itself is unchanged, §V).
        malleable: Whether the policy emits scheduler-initiated
            shrink/expand commands (``CycleDecision.commands``); the
            runner enables the ECC processor's running-resize path
            only for such policies, so every other policy keeps the
            paper's rigid-allocation semantics bit-for-bit.
    """

    name: str = "scheduler"
    handles_dedicated: bool = False
    malleable: bool = False

    def __init__(self, elastic: bool = False) -> None:
        self.elastic = bool(elastic)
        if self.elastic:
            self.name = f"{self.name}-E"

    @abc.abstractmethod
    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        """Run one scheduling pass over the snapshot.

        Must be side-effect free except for ``scount`` bookkeeping on
        queued jobs (guarded by ``ctx.allow_scount_increment``).
        """

    def on_job_failure(self, job: Job, now: float, permanent: bool) -> None:
        """Notification hook: ``job`` failed or was evicted at ``now``.

        Called by the runner after its own recovery bookkeeping
        (requeue or permanent failure, per ``permanent``).  Policies
        are stateless by design, so the default is a no-op; stateful
        subclasses (e.g. a reservation-holding CONSERVATIVE extension)
        can override to invalidate cached plans.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def due_dedicated_promotion(ctx: SchedulerContext) -> Optional[CycleDecision]:
        """Algorithm 2 lines 6–7 / 39–42: promote a due dedicated head.

        Returns a promotion decision when ``w_1^d.start <= t``, else
        ``None``.  Shared by Hybrid-LOS and the -D baselines.
        """
        head = ctx.dedicated_queue.head
        if head is not None and head.requested_start is not None and head.requested_start <= ctx.now:
            return CycleDecision(promotions=[head])
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


__all__ = [
    "CycleDecision",
    "DECISION_REASONS",
    "REASON_DP_EXCLUDED",
    "REASON_FAULT_BACKOFF",
    "REASON_FREEZE_WINDOW",
    "REASON_INSUFFICIENT",
    "REASON_RESERVATION",
    "REASON_SHRINK_INFEASIBLE",
    "Scheduler",
    "SchedulerContext",
]
