"""Event records for the discrete-event engine.

Events are ordered by ``(time, priority, seq)``.  ``seq`` is a
tie-breaker each :class:`~repro.sim.engine.Simulator` counts up on its
own, so that two events scheduled for the same instant with the same
priority fire in scheduling order.  This makes every simulation fully
deterministic, which the test-suite and the reproduction experiments
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable


class EventPriority(IntEnum):
    """Relative ordering of events that fire at the same instant.

    Lower values fire first.  The ordering encodes the semantics the
    paper's simulation framework (GridSim/ALEA) exhibits:

    - job terminations release capacity before anything else at the
      same timestamp (``FINISH``) — a job completing at the very
      instant a fault strikes has completed,
    - elastic control commands are applied next (``ECC``) so a
      reduction arriving exactly at a scheduling instant is visible to
      the scheduler,
    - user cancellations follow the commands of their instant
      (``CANCEL``),
    - fault-model events fire next (``FAULT``: node failures, node
      repairs and injected job failures), so the scheduler cycle of
      the same instant already observes the degraded (or repaired)
      machine,
    - job arrivals enter the queues (``ARRIVAL``),
    - failed jobs whose backoff expired re-enter behind that instant's
      arrivals (``REQUEUE``),
    - dedicated-job start-time timers fire (``TIMER``),
    - the scheduler cycle runs last (``SCHEDULE``), observing a
      consistent post-update state.

    ``ARRIVAL`` and ``SCHEDULE`` are slots the engine holds itself,
    not heap entries the runner schedules: arrivals fire from the
    :class:`~repro.sim.engine.Simulator`'s FIFO arrival lane and
    cycles from its count of owed cycles, each in its slot of the
    ``(time, priority)`` order and ahead of any heap entry a caller
    places in the same slot.

    Workload items (arrivals, commands, cancellations) own their
    slots, so same-instant order never depends on *when* the runner
    admitted an item: within a slot, items fire in workload order.
    """

    FINISH = 0
    ECC = 1
    CANCEL = 2
    FAULT = 3
    ARRIVAL = 4
    REQUEUE = 5
    TIMER = 6
    SCHEDULE = 7
    LOW = 9


@dataclass(slots=True)
class Event:
    """A single scheduled occurrence inside a :class:`Simulator`.

    Attributes:
        time: Simulation instant at which the event fires.
        priority: Same-instant ordering (see :class:`EventPriority`).
        action: Zero-argument callable invoked when the event fires.
        name: Human-readable label used in traces and error messages.
        seq: Tie-breaker the simulator assigns at scheduling time
            (-1 for an event built outside one).
        cancelled: Lazily honoured cancellation flag; cancelled events
            stay in the heap but are skipped by the engine.
    """

    time: float
    priority: int
    action: Callable[[], Any]
    name: str = ""
    seq: int = -1
    cancelled: bool = False
    #: Owning simulator while the event sits in its heap; lets the
    #: engine keep a live-event counter without scanning the heap.
    #: Cleared when the event fires or is discarded.
    _sink: Any = field(default=None, repr=False, compare=False)

    def cancel(self) -> None:
        """Mark the event as cancelled.

        Cancellation is O(1): the engine discards cancelled events when
        they reach the top of the heap (or during a compaction pass)
        and keeps its live-event count exact via the notification hook.
        Cancelling an event that already fired, or cancelling twice,
        is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        sink = self._sink
        if sink is not None:
            self._sink = None
            sink._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        label = self.name or getattr(self.action, "__name__", "<action>")
        return f"Event(t={self.time!r}, p={int(self.priority)}, {label}{flag})"


__all__ = ["Event", "EventPriority"]
