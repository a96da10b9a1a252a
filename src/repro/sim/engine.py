"""The discrete-event simulation engine.

:class:`Simulator` fires events from three sources, merged in
``(time, priority)`` order, advancing the clock monotonically:

- an event heap: callers schedule :class:`~repro.sim.events.Event`
  objects at absolute times (or relative delays) and they fire in
  ``(time, priority, seq)`` order, ``seq`` being the simulator's own
  count of events scheduled so far;
- a FIFO **arrival lane**: :meth:`Simulator.append_arrival` queues an
  item for the ``on_arrival`` hook at a time no earlier than the
  lane's tail, and it fires in the ``EventPriority.ARRIVAL`` slot;
- a **count of owed cycles**: :meth:`Simulator.request_cycle` owes one
  call of the ``on_cycle`` hook at ``now``, fired in the
  ``EventPriority.SCHEDULE`` slot once the instant's earlier work is
  done.

Arrivals and schedule cycles are created in the order they fire, so
they skip the heap push, pop and :class:`Event` allocation; only work
that can be created out of order sits on the heap.  Within its slot an
engine-held firing goes ahead of heap entries of the same
``(time, priority)``.  Lane firings and owed cycles count as fired
events, exactly as heap events do.  It is the substrate on which the
whole reproduction runs, standing in for GridSim + ALEA 2.

Design notes (kept deliberately simple per the HPC-Python guides: make
it work, make it testable, only then optimize):

- The heap stores ``(time, priority, seq, event)`` tuples: ``seq`` is
  unique, so sift comparisons resolve on plain tuple elements and
  never reach the :class:`Event` object — heap maintenance showed up
  at ~25% of simulation wall time when events compared themselves.
  The counter is a field of the simulator, so a pickled simulator
  (a checkpoint) resumes its tie-breaks exactly where it stopped.
  Cancellation is a lazily-honoured flag so rescheduling a job's
  finish event (runtime elasticity!) is O(log n) to add and O(1) to
  cancel.  The engine keeps an exact count
  of cancelled-but-still-heaped events (events notify it on
  cancellation), so :meth:`Simulator.pending_count` is O(1) rather
  than a heap scan, and the heap is compacted whenever cancelled
  events outnumber live ones — elastic runs that reschedule every
  finish event stay linear in live work.
- Time never goes backwards.  Scheduling an event in the past, or
  appending an arrival before the clock or the lane's tail, raises
  :class:`SimulationError` immediately rather than corrupting the run.
- ``run(until=...)`` stops *after* processing all events at ``until``
  and leaves the clock at ``until``, whether later events remain or
  every source drained first; ``run(max_events=1)`` fires exactly one.
- ``run()`` is the one dispatch loop, honouring ``until`` and
  ``max_events``, and knows nothing of observers.  Phase spans time
  the whole drive from outside
  (:meth:`repro.experiments.runner.SimulationRunner.run` brackets it
  with two clock reads), so the loop pays nothing per event for them.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from math import inf
from sys import maxsize
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventPriority

#: The slots of the engine-held sources, as plain ints for the loop.
_ARRIVAL = int(EventPriority.ARRIVAL)
_SCHEDULE = int(EventPriority.SCHEDULE)


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


def _missing_hook(name: str) -> Callable[..., Any]:
    """A stand-in for an unset hook that fails when it is fired."""

    def missing(*_args: Any) -> None:
        raise SimulationError(f"an engine-held event fired with no {name} hook set")

    return missing


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        start_time: Initial value of the simulation clock.
        on_arrival: Called with each arrival-lane item when it fires
            (:meth:`append_arrival`).
        on_cycle: Called once per owed cycle (:meth:`request_cycle`).

    Both hooks are plain attributes.  A caller may set them for the
    length of a drive and clear them after, so the engine does not
    keep its owner alive through a reference cycle.  Firing an
    arrival or a cycle without its hook raises
    :class:`SimulationError`.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule_at(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        1
        >>> fired
        [5.0]
    """

    def __init__(
        self,
        start_time: float = 0.0,
        *,
        on_arrival: Optional[Callable[[Any], Any]] = None,
        on_cycle: Optional[Callable[[], Any]] = None,
    ) -> None:
        self._now = float(start_time)
        # Entries are (time, priority, seq, event); seq is unique so
        # comparisons never fall through to the Event object.
        self._heap: list[tuple[float, int, int, Event]] = []
        #: The next heap entry's ``seq``.
        self._seq = 0
        #: Arrival lane: (time, item) pairs in firing order.
        self._lane: deque[tuple[float, Any]] = deque()
        #: Cycles owed at ``now``; a count, since one may be requested
        #: again at an instant whose earlier request is still owed.
        self._cycles_owed = 0
        self.on_arrival = on_arrival
        self.on_cycle = on_cycle
        self._processed = 0
        self._running = False
        #: Cancelled events still sitting in the heap (exact count).
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._processed

    def pending_count(self) -> int:
        """Number of live events still to fire, from every source.

        O(1): live heap entries (``len(heap) - cancelled``, kept exact
        by the cancellation notifications), plus queued arrivals, plus
        owed cycles.
        """
        return (
            len(self._heap) - self._cancelled_in_heap + len(self._lane) + self._cycles_owed
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next live event from any source, or ``None`` when drained."""
        if self._cycles_owed:
            return self._now
        self._drop_cancelled_head()
        heap, lane = self._heap, self._lane
        if heap:
            return min(heap[0][0], lane[0][0]) if lane else heap[0][0]
        return lane[0][0] if lane else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        action: Callable[[], Any],
        *,
        priority: int = EventPriority.LOW,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulation ``time``.

        Returns the :class:`Event`, which the caller may later
        :meth:`~repro.sim.events.Event.cancel`.

        Raises:
            SimulationError: if ``time`` precedes the current clock.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule {name or action!r} at t={time}; clock is at t={self._now}"
            )
        # The heap entry is built from locals: this constructor is the
        # hottest allocation in a simulation.
        t = float(time)
        p = int(priority)
        seq = self._seq
        self._seq = seq + 1
        event = Event(t, p, action, name, seq)
        event._sink = self
        heappush(self._heap, (t, p, seq, event))
        return event

    def schedule_in(
        self,
        delay: float,
        action: Callable[[], Any],
        *,
        priority: int = EventPriority.LOW,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` after a non-negative relative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {name or action!r}")
        return self.schedule_at(self._now + delay, action, priority=priority, name=name)

    def append_arrival(self, time: float, item: Any) -> None:
        """Queue ``item`` on the arrival lane, to fire at ``time``.

        It fires as ``on_arrival(item)`` in the ``ARRIVAL`` slot of
        its instant, after the lane's earlier items.  An arrival
        cannot be cancelled.

        Raises:
            SimulationError: if ``time`` precedes the clock or the
                lane's tail.
        """
        lane = self._lane
        floor = lane[-1][0] if lane else self._now
        if time < floor:
            raise SimulationError(
                f"cannot append an arrival at t={time}; the clock is at "
                f"t={self._now} and the arrival lane ends at t={floor}"
            )
        lane.append((float(time), item))

    def request_cycle(self) -> None:
        """Owe one ``on_cycle()`` call at ``now``.

        It fires in the ``SCHEDULE`` slot: after every heap entry and
        arrival that sorts before ``(now, SCHEDULE)``, including those
        the instant's actions add meanwhile.  Each request owes one
        more call.
        """
        self._cycles_owed += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until every source drains, ``until`` passes, or ``max_events``.

        Args:
            until: Inclusive horizon; events at exactly ``until`` are
                processed, later ones are left queued, and the clock is
                advanced to ``until`` (also when the sources drain first).
            max_events: Safety valve for runaway simulations.  A call
                that stops on it leaves the clock at the last event.

        Returns:
            Number of events processed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        horizon = inf if until is None else until
        budget = maxsize if max_events is None else max_events
        if self._now > horizon:
            # Every source fires at or after the clock: nothing is due.
            budget = 0
        fired = 0
        heap = self._heap
        pop = heappop
        lane = self._lane
        popleft = lane.popleft
        arrive = self.on_arrival or _missing_hook("on_arrival")
        cycle = self.on_cycle or _missing_hook("on_cycle")
        now = self._now
        try:
            # One look at each source per event: the smallest
            # (time, priority) fires, and an engine-held source wins a
            # tie with a heap entry of its slot.
            while fired < budget:
                if heap:
                    entry = heap[0]
                    if entry[3].cancelled:
                        pop(heap)
                        self._cancelled_in_heap -= 1
                        continue
                    t = entry[0]
                else:
                    entry = None
                    t = inf
                if lane:
                    lt = lane[0][0]
                    if lt < t or (lt == t and (entry is None or entry[1] >= _ARRIVAL)):
                        if self._cycles_owed and lt > now:
                            self._cycles_owed -= 1
                            fired += 1
                            cycle()
                            continue
                        if lt > horizon:
                            break
                        item = popleft()[1]
                        self._now = now = lt
                        fired += 1
                        arrive(item)
                        continue
                if self._cycles_owed and (t > now or entry[1] >= _SCHEDULE):
                    self._cycles_owed -= 1
                    fired += 1
                    cycle()
                    continue
                if t > horizon or entry is None:
                    break
                pop(heap)
                event = entry[3]
                event._sink = None  # fired: late cancel() must not decrement
                self._now = now = t
                fired += 1
                event.action()
            if until is not None and fired < budget and self._now < until:
                # Stopped at the horizon or drained before it: either
                # way the clock reaches ``until``.
                self._now = until
        finally:
            self._processed += fired
            self._running = False
        return fired

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0][3].cancelled:
            heappop(self._heap)
            self._cancelled_in_heap -= 1

    def _note_cancelled(self) -> None:
        """Cancellation hook from :meth:`Event.cancel`.

        Keeps the live-event count exact and compacts the heap once
        cancelled events outnumber live ones, bounding both memory and
        the log-factor of subsequent pushes by the *live* event count.
        """
        self._cancelled_in_heap += 1
        if self._cancelled_in_heap * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap with cancelled events dropped.

        In place: ``run()`` holds a local alias to the heap list, and
        compaction can trigger mid-run from inside an event action.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self._cancelled_in_heap = 0


__all__ = ["SimulationError", "Simulator"]
