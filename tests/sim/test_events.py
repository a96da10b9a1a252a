"""Unit tests for event records and ordering."""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventPriority


def _event(time: float, priority: int = EventPriority.LOW) -> Event:
    return Event(time=time, priority=priority, action=lambda: None)


def _firing_order(*entries) -> list:
    """Schedule ``(time, priority, label)`` entries in order; fire them all."""
    sim = Simulator()
    fired = []
    for time, priority, label in entries:
        sim.schedule_at(time, lambda label=label: fired.append(label), priority=priority)
    sim.run()
    return fired


class TestOrdering:
    def test_earlier_time_fires_first(self):
        order = _firing_order((2.0, EventPriority.LOW, "late"), (1.0, EventPriority.LOW, "early"))
        assert order == ["early", "late"]

    def test_priority_breaks_time_ties(self):
        order = _firing_order(
            (5.0, EventPriority.SCHEDULE, "schedule"), (5.0, EventPriority.FINISH, "finish")
        )
        assert order == ["finish", "schedule"]

    def test_sequence_breaks_full_ties(self):
        # Same (time, priority): scheduling order is preserved, whatever
        # the labels would sort to.
        order = _firing_order((5.0, EventPriority.LOW, "b"), (5.0, EventPriority.LOW, "a"))
        assert order == ["b", "a"]

    def test_sequence_is_per_simulator(self):
        # Each simulator counts its own tie-breaks, so a second
        # simulator's scheduling cannot reorder the first one's ties.
        sim = Simulator()
        first = sim.schedule_at(1.0, lambda: None)
        Simulator().schedule_at(1.0, lambda: None)
        second = sim.schedule_at(1.0, lambda: None)
        assert (first.seq, second.seq) == (0, 1)

    def test_priority_enum_encodes_semantics(self):
        # Terminations release capacity before the scheduler observes
        # state; ECCs apply before cancellations and arrivals; requeues
        # follow the instant's arrivals; the cycle runs last.
        assert (
            EventPriority.FINISH
            < EventPriority.ECC
            < EventPriority.CANCEL
            < EventPriority.FAULT
            < EventPriority.ARRIVAL
            < EventPriority.REQUEUE
            < EventPriority.TIMER
            < EventPriority.SCHEDULE
        )


class TestCancellation:
    def test_cancel_sets_flag(self):
        event = _event(1.0)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled

    def test_cancel_is_idempotent(self):
        event = _event(1.0)
        event.cancel()
        event.cancel()
        assert event.cancelled
