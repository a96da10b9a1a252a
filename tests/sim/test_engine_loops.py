"""Every way of driving the engine's dispatch loop fires the same events.

A random event program — same-instant ties, cancellations, actions that
schedule or cancel further events, arrivals on the engine's FIFO lane
and cycles owed from inside actions — is replayed from scratch under
each way of driving :meth:`Simulator.run`: to drain, one event at a
time (``max_events=1``), in larger ``max_events`` chunks, and to a
series of ``until`` horizons.  Every replay must fire the same events
in the same order and agree on ``processed_events``, the final clock
and ``pending_count()``.

A second property replays the program with arrivals and cycles pushed
on the heap in their ``EventPriority`` slots instead, the engine's
behaviour before it held them itself, and requires the same firings.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import EventPriority

#: One scripted event: (time, priority, op, arg).  Ops:
#:   "noop"           nothing;
#:   "spawn"  delay   schedule a follow-up event ``delay`` later;
#:   "cancel" -       cancel an earlier-created event (``cancel_picks``);
#:   "arrive" delay   append an arrival ``delay`` later (never before
#:                    the lane's tail);
#:   "cycle"  n       request a cycle, twice when ``n >= 1`` — the
#:                    second while the first is still owed.
Step = Tuple[float, int, str, float]

TIMES = [0.0, 1.0, 1.0, 2.0, 2.5, 4.0]  # repeats force ties
OPS = ["noop", "spawn", "cancel", "arrive", "cycle"]
ARGS = [0.0, 0.5, 1.0, 3.0]

#: Heap priorities on both sides of the engine-held slots, and in them.
ALL_SLOTS = [int(p) for p in EventPriority]
#: Without ARRIVAL and SCHEDULE: a tie inside those slots is ordered by
#: the engine (lane and cycle first) but by seq on an all-heap engine.
HEAP_ONLY_SLOTS = [p for p in ALL_SLOTS if p not in (EventPriority.ARRIVAL, EventPriority.SCHEDULE)]


def steps(priorities):
    return st.tuples(
        st.sampled_from(TIMES),
        st.sampled_from(priorities),
        st.sampled_from(OPS),
        st.sampled_from(ARGS),
    )


class Program:
    """Builds the scripted events on a fresh simulator and logs firings.

    Follow-ups are "noop" or "cancel" events, so spawning never recurses.
    Arrivals with an even label request a cycle, as the runner's do;
    every third cycle schedules a same-instant ``FINISH`` event, as a
    cycle that starts a zero-length job does.  With ``lanes=False``
    arrivals and cycles are heap events in their priority slots.
    """

    def __init__(
        self,
        script: List[Step],
        cancel_picks: List[int],
        arrivals: List[float],
        *,
        lanes: bool = True,
    ) -> None:
        self.cancel_picks = cancel_picks
        self.lanes = lanes
        if lanes:
            self.sim = Simulator(on_arrival=self._on_arrival, on_cycle=self._on_cycle)
        else:
            self.sim = Simulator()
        self.events = []
        self.fired: List[Tuple[object, float]] = []
        self.spawned = 0
        self.arrived = 0
        self.cycles = 0
        self.lane_tail = 0.0
        for time in sorted(arrivals):
            self._arrive(time)
        for index, (time, priority, op, arg) in enumerate(script):
            self._add(time, priority, op, arg, label=index)

    # The engine-held sources, or their heap stand-ins.
    def _arrive(self, time: float) -> None:
        time = max(time, self.lane_tail)
        self.lane_tail = time
        label = 2000 + self.arrived
        self.arrived += 1
        if self.lanes:
            self.sim.append_arrival(time, label)
        else:
            self.sim.schedule_at(
                time, lambda: self._on_arrival(label), priority=EventPriority.ARRIVAL
            )

    def _request_cycle(self) -> None:
        if self.lanes:
            self.sim.request_cycle()
        else:
            self.sim.schedule_at(
                self.sim.now, self._on_cycle, priority=EventPriority.SCHEDULE
            )

    def _on_arrival(self, label: int) -> None:
        self.fired.append((label, self.sim.now))
        if label % 2 == 0:
            self._request_cycle()

    def _on_cycle(self) -> None:
        self.fired.append(("cycle", self.sim.now))
        self.cycles += 1
        if self.cycles % 3 == 0:
            self._add(self.sim.now, EventPriority.FINISH, "noop", 0.0, label=3000 + self.cycles)

    def _add(self, time, priority, op, arg, label) -> None:
        position = len(self.events)

        def action() -> None:
            self.fired.append((label, self.sim.now))
            if op == "spawn":
                self.spawned += 1
                follow_op = "cancel" if self.spawned % 3 == 0 else "noop"
                self._add(
                    self.sim.now + arg, priority, follow_op, arg,
                    label=1000 + position,
                )
            elif op == "cancel" and self.events:
                pick = self.cancel_picks[position % len(self.cancel_picks)]
                self.events[pick % len(self.events)].cancel()
            elif op == "arrive":
                self._arrive(self.sim.now + arg)
            elif op == "cycle":
                self._request_cycle()
                if arg >= 1.0:
                    self._request_cycle()

        self.events.append(self.sim.schedule_at(time, action, priority=priority))


def drive(program: Program, how: str, arg) -> None:
    sim = program.sim
    if how == "drain":
        sim.run()
    elif how == "step":
        while sim.run(max_events=1):
            pass
    elif how == "chunks":
        while sim.run(max_events=arg):
            pass
    else:  # horizons, then drain what is left
        for horizon in arg:
            sim.run(until=horizon)
        sim.run()


arrival_times = st.lists(st.sampled_from(TIMES), max_size=8)
picks = st.lists(st.integers(0, 60), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(
    script=st.lists(steps(ALL_SLOTS), min_size=0, max_size=25),
    cancel_picks=picks,
    arrivals=arrival_times,
    horizons=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 9.0]), max_size=4),
)
def test_loops_agree_on_every_drive(script, cancel_picks, arrivals, horizons):
    horizons = sorted(horizons)
    drives = [("step", None), ("chunks", 7), ("chunks", 64), ("horizons", horizons)]
    reference = Program(script, cancel_picks, arrivals)
    drive(reference, "drain", None)
    last_fired = reference.fired[-1][1] if reference.fired else 0.0
    assert reference.sim.processed_events == len(reference.fired)
    assert reference.sim.pending_count() == 0

    for how, arg in drives:
        program = Program(script, cancel_picks, arrivals)
        drive(program, how, arg)
        sim = program.sim
        context = (how, arg)

        assert program.fired == reference.fired, context
        assert sim.processed_events == len(reference.fired), context
        expected_clock = last_fired
        if how == "horizons" and horizons:
            expected_clock = max(last_fired, horizons[-1])
        assert sim.now == expected_clock, context
        assert sim.pending_count() == 0, context


@settings(max_examples=80, deadline=None)
@given(
    script=st.lists(steps(HEAP_ONLY_SLOTS), min_size=0, max_size=25),
    cancel_picks=picks,
    arrivals=arrival_times,
    chunk=st.sampled_from([1, 2, 5]),
)
def test_engine_held_sources_fire_in_their_heap_slots(script, cancel_picks, arrivals, chunk):
    heap_only = Program(script, cancel_picks, arrivals, lanes=False)
    drive(heap_only, "drain", None)
    for how, arg in (("drain", None), ("step", None), ("chunks", chunk)):
        program = Program(script, cancel_picks, arrivals)
        drive(program, how, arg)
        assert program.fired == heap_only.fired, (how, arg)
        assert program.sim.processed_events == heap_only.sim.processed_events
        assert program.sim.now == heap_only.sim.now


def test_pending_count_tracks_every_source_mid_drive():
    # A budget stop between an arrival and the cycle it requested
    # leaves that cycle owed; the counts and peek_time see it.
    program = Program([(1.0, 0, "noop", 0.0)], [0], [1.0, 1.0, 3.0])
    sim = program.sim
    assert sim.pending_count() == 4
    assert sim.run(max_events=2) == 2  # the FINISH-slot event, arrival 2000
    assert sim._cycles_owed == 1
    assert sim.peek_time() == 1.0
    assert sim.pending_count() == 3  # the owed cycle and two arrivals
    sim.run()
    assert [label for label, _ in program.fired] == [
        0, 2000, 2001, "cycle", 2002, "cycle",
    ]
    assert sim.pending_count() == 0
