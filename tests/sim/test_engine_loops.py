"""The engine's two dispatch loops (plain and spans) agree on every drive.

A random event program — same-instant ties, cancellations, and actions
that schedule or cancel further events — is replayed from scratch under
each way of driving :meth:`Simulator.run` (to drain, in ``max_events``
chunks, to a series of ``until`` horizons) and each spans mode (off,
aggregate, timeline).  Every replay must fire the same events in the
same order and agree on ``processed_events`` and the final clock, and
the span accounting must match what was fired.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.obs import spans
from repro.obs.spans import SpanRecorder, activated
from repro.sim.engine import Simulator

#: One scripted event: (time, priority, op, arg).  Ops:
#:   "noop"           nothing;
#:   "spawn"  delay   schedule a follow-up event ``delay`` later;
#:   "cancel" -       cancel an earlier-created event (``cancel_picks``);
#:   "span"   -       open and close a ``dp_solve`` child span.
Step = Tuple[float, int, str, float]

steps = st.tuples(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 4.0]),  # repeats force ties
    st.integers(0, 3),
    st.sampled_from(["noop", "spawn", "cancel", "span"]),
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
        self.child_spans = 0
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
            elif op == "span":
                token = spans.begin("dp_solve")
                if token is not None:
                    self.child_spans += 1
                spans.end(token)

        self.events.append(self.sim.schedule_at(time, action, priority=priority))


def drive(program: Program, how: str, arg, recorder: Optional[SpanRecorder]) -> None:
    sim = program.sim

    def go() -> None:
        if how == "drain":
            sim.run()
        elif how == "chunks":
            while sim.run(max_events=arg):
                pass
        else:  # horizons, then drain what is left
            for horizon in arg:
                sim.run(until=horizon)
            sim.run()

    if recorder is None:
        go()
    else:
        with activated(recorder):
            go()


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(steps, min_size=0, max_size=25),
    cancel_picks=st.lists(st.integers(0, 60), min_size=1, max_size=8),
    horizons=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, 9.0]), max_size=4),
    cap=st.integers(1, 40),
)
def test_loops_agree_on_every_drive(script, cancel_picks, horizons, cap):
    horizons = sorted(horizons)
    drives = [("drain", None), ("chunks", 1), ("chunks", 7), ("chunks", 64),
              ("horizons", horizons)]
    reference = Program(script, cancel_picks)
    drive(reference, "drain", None, None)
    last_fired = reference.fired[-1][1] if reference.fired else 0.0

    for how, arg in drives:
        for mode in ("off", "aggregate", "timeline"):
            recorder = None
            if mode != "off":
                recorder = SpanRecorder(max_events=cap, timeline=mode == "timeline")
            program = Program(script, cancel_picks)
            drive(program, how, arg, recorder)
            sim = program.sim
            context = (how, arg, mode)

            assert program.fired == reference.fired, context
            assert sim.processed_events == len(reference.fired), context
            expected_clock = last_fired
            if how == "horizons" and horizons:
                expected_clock = max(last_fired, horizons[-1])
            assert sim.now == expected_clock, context
            assert sim.pending_count() == 0, context

            if recorder is None:
                continue
            fired = len(program.fired)
            count, cumulative, self_time = recorder.phases.get("event", [0, 0.0, 0.0])
            assert count == fired, context
            assert self_time <= cumulative, context
            if mode == "aggregate":
                assert recorder.events == [], context
                continue
            # One "event" slice per dispatch (plus one per child span),
            # kept up to the cap and counted as dropped past it.
            slices = [name for name, _, _ in recorder.events]
            assert len(slices) + recorder.events_dropped == fired + program.child_spans
            assert len(slices) == min(cap, fired + program.child_spans), context
            if recorder.events_dropped == 0:
                assert slices.count("event") == fired, context
