"""Every way of driving the engine's dispatch loop fires the same events.

A random event program — same-instant ties, cancellations, and actions
that schedule or cancel further events — is replayed from scratch under
each way of driving :meth:`Simulator.run`: to drain, one :meth:`step`
at a time, in ``max_events`` chunks, and to a series of ``until``
horizons.  Every replay must fire the same events in the same order and
agree on ``processed_events`` and the final clock.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator

#: One scripted event: (time, priority, op, arg).  Ops:
#:   "noop"           nothing;
#:   "spawn"  delay   schedule a follow-up event ``delay`` later;
#:   "cancel" -       cancel an earlier-created event (``cancel_picks``).
Step = Tuple[float, int, str, float]

steps = st.tuples(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 4.0]),  # repeats force ties
    st.integers(0, 3),
    st.sampled_from(["noop", "spawn", "cancel"]),
    st.sampled_from([0.0, 0.5, 1.0, 3.0]),
)


class Program:
    """Builds the scripted events on a fresh simulator and logs firings.

    Follow-ups are "noop" or "cancel" events, so spawning never recurses.
    """

    def __init__(self, script: List[Step], cancel_picks: List[int]) -> None:
        self.cancel_picks = cancel_picks
        self.sim = Simulator()
        self.events = []
        self.fired: List[Tuple[int, float]] = []
        self.spawned = 0
        for index, (time, priority, op, arg) in enumerate(script):
            self._add(time, priority, op, arg, label=index)

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

        self.events.append(self.sim.schedule_at(time, action, priority=priority))


def drive(program: Program, how: str, arg) -> None:
    sim = program.sim
    if how == "drain":
        sim.run()
    elif how == "step":
        while sim.step() is not None:
            pass
    elif how == "chunks":
        while sim.run(max_events=arg):
            pass
    else:  # horizons, then drain what is left
        for horizon in arg:
            sim.run(until=horizon)
        sim.run()


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(steps, min_size=0, max_size=25),
    cancel_picks=st.lists(st.integers(0, 60), min_size=1, max_size=8),
    horizons=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 9.0]), max_size=4),
)
def test_loops_agree_on_every_drive(script, cancel_picks, horizons):
    horizons = sorted(horizons)
    drives = [("step", None), ("chunks", 1), ("chunks", 7), ("chunks", 64),
              ("horizons", horizons)]
    reference = Program(script, cancel_picks)
    drive(reference, "drain", None)
    last_fired = reference.fired[-1][1] if reference.fired else 0.0
    assert reference.sim.processed_events == len(reference.fired)
    assert reference.sim.pending_count() == 0

    for how, arg in drives:
        program = Program(script, cancel_picks)
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
