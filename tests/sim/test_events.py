"""Unit tests for event records and ordering."""

from __future__ import annotations

from repro.sim.events import Event, EventPriority


def _event(time: float, priority: int = EventPriority.LOW) -> Event:
    return Event(time=time, priority=priority, action=lambda: None)


class TestOrdering:
    def test_earlier_time_fires_first(self):
        assert _event(1.0) < _event(2.0)

    def test_priority_breaks_time_ties(self):
        finish = _event(5.0, EventPriority.FINISH)
        schedule = _event(5.0, EventPriority.SCHEDULE)
        assert finish < schedule

    def test_sequence_breaks_full_ties(self):
        first = _event(5.0, EventPriority.LOW)
        second = _event(5.0, EventPriority.LOW)
        assert first < second  # scheduling order preserved
        assert first.seq < second.seq

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

    def test_sort_key_matches_lt(self):
        a, b = _event(1.0, 3), _event(1.0, 2)
        assert (a < b) == (a.sort_key() < b.sort_key())
        assert b < a


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
