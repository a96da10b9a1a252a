"""Unit and property tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventPriority


class TestScheduling:
    def test_schedule_at_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        processed = sim.run()
        assert processed == 2
        assert fired == [2.0, 5.0]
        assert sim.now == 5.0

    def test_schedule_in_relative(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule_in(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [13.0]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError, match="clock is at"):
            sim.schedule_at(9.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="negative delay"):
            sim.schedule_in(-1.0, lambda: None)

    def test_same_time_priority_ordering(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("low"), priority=EventPriority.LOW)
        sim.schedule_at(1.0, lambda: fired.append("finish"), priority=EventPriority.FINISH)
        sim.schedule_at(1.0, lambda: fired.append("arrival"), priority=EventPriority.ARRIVAL)
        sim.run()
        assert fired == ["finish", "arrival", "low"]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule_in(1.0, chain)

        sim.schedule_at(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(2.0, lambda: fired.append("b"))
        event.cancel()
        assert sim.run() == 1
        assert fired == ["b"]

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule_at(1.0, lambda: None)
        drop = sim.schedule_at(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count() == 1
        assert sim.peek_time() == keep.time

    def test_peek_time_skips_cancelled_head(self):
        sim = Simulator()
        head = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        head.cancel()
        assert sim.peek_time() == 2.0


class TestRunControl:
    def test_until_processes_inclusive_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.schedule_at(3.0, lambda: fired.append(3))
        sim.run(until=2.0)
        assert fired == [1, 2]
        assert sim.now == 2.0
        assert sim.pending_count() == 1

    def test_until_advances_clock_when_no_events(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_until_advances_clock_when_heap_drains_first(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert sim.run(until=5.0) == 1
        assert sim.now == 5.0

    def test_max_events_leaves_clock_at_last_event(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.run(until=5.0, max_events=1) == 1
        assert sim.now == 1.0

    def test_max_events_stops_early(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(float(t), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending_count() == 2

    def test_single_event_drive_fires_nothing_when_drained(self):
        sim = Simulator()
        assert sim.run(max_events=1) == 0
        assert sim.processed_events == 0

    def test_run_not_reentrant(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError, match="not reentrant"):
                sim.run()

        sim.schedule_at(1.0, nested)
        sim.run()

    def test_processed_events_counter(self):
        sim = Simulator()
        for t in range(4):
            sim.schedule_at(float(t), lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestClockMonotonicity:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_events_fire_in_nondecreasing_time_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda t=t: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(
        times=st.lists(
            st.integers(min_value=0, max_value=100), min_size=2, max_size=30
        ),
        cancel_index=st.integers(min_value=0, max_value=29),
    )
    def test_cancellation_never_affects_other_events(self, times, cancel_index):
        sim = Simulator()
        events = [sim.schedule_at(float(t), lambda: None) for t in times]
        victim = events[cancel_index % len(events)]
        victim.cancel()
        assert sim.run() == len(times) - 1


class TestLiveEventAccounting:
    """The O(1) pending counter and the cancelled-heap compaction."""

    def test_pending_count_exact_through_mixed_lifecycle(self):
        sim = Simulator()
        events = [sim.schedule_at(float(t), lambda: None) for t in range(10)]
        assert sim.pending_count() == 10
        for event in events[::2]:
            event.cancel()
        assert sim.pending_count() == 5
        sim.run()
        assert sim.pending_count() == 0

    def test_double_cancel_does_not_corrupt_count(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_count() == 1

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run(max_events=1)  # fires `event`
        event.cancel()
        assert sim.pending_count() == 1

    def test_compaction_drops_cancelled_events(self):
        sim = Simulator()
        doomed = [sim.schedule_at(float(t), lambda: None) for t in range(100)]
        survivor = sim.schedule_at(200.0, lambda: None)
        for event in doomed:
            event.cancel()
        # Cancelled events outnumbered live ones mid-way, so the heap
        # was compacted down to the survivor (at most one cancelled
        # event may linger below the compaction threshold).
        assert len(sim._heap) <= 2
        assert sim.pending_count() == 1
        assert sim.peek_time() == 200.0
        sim.run()
        assert survivor.cancelled is False

    def test_order_preserved_across_compaction(self):
        sim = Simulator()
        fired = []
        keep = []
        for t in range(50):
            event = sim.schedule_at(float(t), lambda t=t: fired.append(t))
            if t % 5:
                event.cancel()
            else:
                keep.append(t)
        sim.run()
        assert fired == keep

    def test_reschedule_churn_stays_compact(self):
        """Elastic-style churn: repeatedly cancel + reschedule one
        finish event; the heap must not accumulate dead entries."""
        sim = Simulator()
        event = sim.schedule_at(1000.0, lambda: None)
        for i in range(1000):
            event.cancel()
            event = sim.schedule_at(1000.0 + i, lambda: None)
        assert sim.pending_count() == 1
        assert len(sim._heap) <= 3


class TestEngineHeldSources:
    """The arrival lane and the owed-cycle count beside the heap."""

    def test_slots_order_a_shared_instant(self):
        log = []
        sim = Simulator(
            on_arrival=lambda item: log.append(item),
            on_cycle=lambda: log.append("cycle"),
        )
        sim.schedule_at(1.0, lambda: log.append("low"), priority=EventPriority.LOW)
        sim.schedule_at(1.0, lambda: log.append("timer"), priority=EventPriority.TIMER)
        sim.schedule_at(1.0, sim.request_cycle, priority=EventPriority.FINISH)
        sim.append_arrival(1.0, "a1")
        sim.append_arrival(1.0, "a2")
        sim.schedule_at(1.0, lambda: log.append("fault"), priority=EventPriority.FAULT)
        sim.schedule_at(1.0, lambda: log.append("arrival-slot"), priority=EventPriority.ARRIVAL)
        assert sim.pending_count() == 7
        assert sim.run() == 8  # the seven, and the cycle owed by FINISH
        # Engine-held items go ahead of heap entries in their own slot.
        assert log == ["fault", "a1", "a2", "arrival-slot", "timer", "cycle", "low"]

    def test_owed_cycle_fires_before_the_clock_moves(self):
        log = []
        sim = Simulator(on_cycle=lambda: log.append(("cycle", sim.now)))
        sim.schedule_at(2.0, lambda: log.append(("later", sim.now)))
        sim.request_cycle()
        sim.request_cycle()
        assert sim._cycles_owed == 2
        assert sim.peek_time() == 0.0
        assert sim.run() == 3
        assert log == [("cycle", 0.0), ("cycle", 0.0), ("later", 2.0)]

    def test_single_event_drives_fire_engine_held_sources(self):
        log = []
        sim = Simulator(
            on_arrival=lambda item: log.append((item, sim.now)),
            on_cycle=lambda: log.append(("cycle", sim.now)),
        )
        sim.append_arrival(3.0, "job")
        sim.request_cycle()
        assert sim.run(max_events=1) == 1
        assert log == [("cycle", 0.0)]
        assert sim.run(max_events=1) == 1
        assert log == [("cycle", 0.0), ("job", 3.0)]
        assert sim.run(max_events=1) == 0
        assert sim.processed_events == 2

    def test_horizon_leaves_later_arrivals_queued(self):
        sim = Simulator(on_arrival=lambda item: None)
        sim.append_arrival(1.0, "a")
        sim.append_arrival(5.0, "b")
        assert sim.run(until=2.0) == 1
        assert sim.now == 2.0
        assert sim.pending_count() == 1
        assert sim.peek_time() == 5.0

    def test_nothing_fires_below_the_clock(self):
        sim = Simulator(start_time=10.0, on_cycle=lambda: None)
        sim.request_cycle()
        assert sim.run(until=5.0) == 0
        assert sim.now == 10.0
        assert sim._cycles_owed == 1

    def test_arrival_before_the_clock_raises(self):
        sim = Simulator(start_time=10.0, on_arrival=lambda item: None)
        with pytest.raises(SimulationError, match="clock is at t=10.0"):
            sim.append_arrival(9.0, "late")

    def test_arrival_before_the_lane_tail_raises(self):
        sim = Simulator(on_arrival=lambda item: None)
        sim.append_arrival(5.0, "a")
        sim.append_arrival(5.0, "tie is fine")
        with pytest.raises(SimulationError, match="lane ends at t=5.0"):
            sim.append_arrival(4.0, "b")
        assert sim.pending_count() == 2

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_firing_needs_its_hook(self, drive):
        # Queueing needs no hook (a caller may set hooks per drive);
        # firing without one is an error, not a silent drop.  A "step"
        # drive fires one event.
        max_events = 1 if drive == "step" else None
        sim = Simulator()
        sim.append_arrival(1.0, "a")
        with pytest.raises(SimulationError, match="no on_arrival hook"):
            sim.run(max_events=max_events)
        sim.request_cycle()
        with pytest.raises(SimulationError, match="no on_cycle hook"):
            sim.run(max_events=max_events)
        log = []
        sim.on_arrival, sim.on_cycle = log.append, lambda: log.append("cycle")
        sim.append_arrival(2.0, "b")
        sim.run()
        assert log == ["b"]
