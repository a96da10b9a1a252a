"""The discrete-event simulation engine.

:class:`Simulator` is a classic event-heap loop: callers schedule
:class:`~repro.sim.events.Event` objects at absolute times (or relative
delays) and :meth:`Simulator.run` pops them in ``(time, priority, seq)``
order, advancing the clock monotonically.  It is the substrate on which
the whole reproduction runs, standing in for GridSim + ALEA 2.

Design notes (kept deliberately simple per the HPC-Python guides: make
it work, make it testable, only then optimize):

- The heap stores ``(time, priority, seq, event)`` tuples: ``seq`` is
  unique, so sift comparisons resolve on plain tuple elements and
  never call back into ``Event.__lt__`` — heap maintenance showed up
  at ~25% of simulation wall time when events compared themselves.
  Cancellation is a lazily-honoured flag so rescheduling a job's
  finish event (runtime elasticity!) is O(log n) to add and O(1) to
  cancel.  The engine keeps an exact count
  of cancelled-but-still-heaped events (events notify it on
  cancellation), so :meth:`Simulator.pending_count` is O(1) rather
  than a heap scan, and the heap is compacted whenever cancelled
  events outnumber live ones — elastic runs that reschedule every
  finish event stay linear in live work.
- Time never goes backwards.  Scheduling an event in the past raises
  :class:`SimulationError` immediately rather than corrupting the run.
- ``run(until=...)`` stops *after* processing all events at ``until``
  and leaves the clock at ``until``, whether later events remain or
  the heap drained first; ``step()`` processes exactly one event and
  is what the unit tests exercise for fine-grained assertions.
- ``run()`` has one dispatch loop, honouring ``until`` and
  ``max_events``, and knows nothing of observers.  Phase spans time
  the whole drive from outside
  (:meth:`repro.experiments.runner.SimulationRunner.run` brackets it
  with two clock reads), so the loop pays nothing per event for them.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from math import inf
from sys import maxsize
from typing import Any, Callable, Iterator, Optional

from repro.sim.events import Event, EventPriority, _seq_counter

_next_seq = _seq_counter.__next__


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        start_time: Initial value of the simulation clock.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule_at(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        1
        >>> fired
        [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Entries are (time, priority, seq, event); seq is unique so
        # comparisons never fall through to the Event object.
        self._heap: list[tuple[float, int, int, Event]] = []
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
        """Number of live (non-cancelled) events still queued.

        O(1): maintained as ``len(heap) - cancelled`` from the
        cancellation notifications, not by scanning the heap.
        """
        return len(self._heap) - self._cancelled_in_heap

    def pending(self) -> Iterator[Event]:
        """Iterate live queued events in an unspecified order."""
        return (entry[3] for entry in self._heap if not entry[3].cancelled)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when drained."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def max_seq(self) -> int:
        """Largest sequence number still sitting in the heap (-1 if empty).

        The checkpoint layer persists this watermark so a restore in a
        fresh process can advance the global sequence counter past
        every queued event (:func:`repro.sim.events.advance_seq`),
        keeping same-instant tie-breaks identical to the uninterrupted
        run.  Cancelled events are included — they are heap residents
        too, and a larger watermark is always safe.
        """
        return max((entry[2] for entry in self._heap), default=-1)

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
        # Sequence assigned here (not via the Event field default) so
        # the heap entry is built from locals — this constructor is the
        # hottest allocation in a simulation.
        t = float(time)
        p = int(priority)
        seq = _next_seq()
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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Fire the next live event, advancing the clock.

        Returns the event fired, or ``None`` if the heap is empty.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)[3]
        event._sink = None  # fired: a late cancel() must not decrement
        self._now = event.time
        self._processed += 1
        event.action()
        return event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the heap drains, ``until`` passes, or ``max_events``.

        Args:
            until: Inclusive horizon; events at exactly ``until`` are
                processed, later ones are left queued, and the clock is
                advanced to ``until`` (also when the heap drains first).
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
        fired = 0
        heap = self._heap
        pop = heappop
        try:
            # peek/step inlined: one heap-head inspection per event fired.
            while heap and fired < budget:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    pop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                if entry[0] > horizon:
                    break
                pop(heap)
                event._sink = None  # fired: late cancel() must not decrement
                self._now = entry[0]
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
            heapq.heappop(self._heap)
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
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0


__all__ = ["SimulationError", "Simulator"]
