"""Hierarchical phase spans: where does the wall time actually go?

Flat telemetry counters (:mod:`repro.obs.telemetry`) say *how often*
the scheduler worked; spans say *where the time went* — per engine/
scheduler phase, with self vs. cumulative attribution and an optional
Chrome trace-event export loadable in Perfetto or ``chrome://tracing``.
The instrumented phases (the :data:`PHASES` catalog) cover the hot
paths ROADMAP item 1 asks to profile: event dispatch, the scheduling
cycle, the DP solve, the EASY backfill scan, capacity-profile
rebuilds, ECC application, checkpoint saves and trace flushes.

Design rules, mirroring the telemetry module:

- **Zero cost when off.**  Hot paths call the module-level
  :func:`begin`/:func:`end` hooks; with no recorder :func:`activated`,
  that is one global load plus a ``None`` check.  The engine's
  dispatch loop is never instrumented at all, so it costs nothing per
  event either way.
- **Observe-only.**  Spans never feed back into scheduling; traces are
  byte-identical with spans on or off (a tier-1 test holds every
  registry policy to it, ``tests/obs/test_spans_equivalence.py``).
- **One timing path.**  Phase wall time is measured here and nowhere
  else: the scheduling cycle's cost is ``span_schedule_cycle_s``, not
  a parallel runner timer; ``run_wall_s`` is the one run-level timer.
- **Whole-run accounting.**  The ``event`` phase is one bracket: the
  runner reads the clock once before and once after the engine drive
  (the same interval that is ``run_wall_s``) and folds it in with
  :meth:`SpanRecorder.add_bulk`, its self time being the bracket minus
  :attr:`SpanRecorder.root_child`.  Every other span closes inside the
  bracket, so the phase self times sum to ``run_wall_s``.
- **Bounded.**  The Chrome event buffer caps at :data:`MAX_EVENTS`
  entries; later spans still aggregate into the per-phase totals but
  drop from the export, counted by ``events_dropped`` (surfaced as the
  ``span_events_dropped`` telemetry counter).
- **Cheap by default.**  The per-span timeline is only kept when the
  recorder is built with ``timeline=True`` (a Chrome export was
  requested); the default aggregate-only mode skips the per-span tuple
  build entirely.  Event dispatch itself is never a span: timeline
  mode gets one ``event`` slice per bracket
  (:meth:`~SpanRecorder.add_slice`), not one per dispatch.

>>> recorder = SpanRecorder()
>>> with activated(recorder):
...     outer = begin("schedule_cycle")
...     inner = begin("dp_solve")
...     end(inner)
...     end(outer)
>>> sorted(recorder.phases)
['dp_solve', 'schedule_cycle']
>>> recorder.phases["schedule_cycle"][0]   # count
1
>>> begin("dp_solve") is None              # no active recorder: free
True
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple, Union

#: Canonical instrumented-phase names.  The counter-catalog checker
#: (``tools/check_counter_catalog.py``) expands the dynamic
#: ``span_<phase>`` / ``span_<phase>_s`` / ``span_<phase>_self_s``
#: telemetry families from this tuple, so a new ``begin("...")`` site
#: must add its phase here (and to docs/observability.md) or the docs
#: CI job fails.
PHASES = (
    "event",
    "schedule_cycle",
    "dp_solve",
    "backfill",
    "profile_rebuild",
    "ecc_apply",
    "checkpoint_save",
    "trace_flush",
)

#: Chrome-event buffer cap; past it spans still aggregate but drop
#: from the export (see module docstring).
MAX_EVENTS = 200_000


class SpanRecorder:
    """Collects hierarchical phase spans for one run.

    Nesting is a plain stack: :meth:`begin` pushes an entry and
    returns it, :meth:`end` pops it, so callers hold the token and
    never pay a name lookup.  Per phase name the recorder keeps
    ``[count, cumulative_s, self_s]`` where *self* excludes time spent
    in child spans — the number a profiler sorts by.

    Attributes:
        phases: phase name -> ``[count, cumulative_s, self_s]``.
        events: Bounded ``(name, start_s, duration_s)`` tuples for the
            Chrome export; ``start_s`` is relative to the recorder's
            creation.  Only populated in ``timeline`` mode.
        events_dropped: Spans aggregated but not exported (buffer cap).
        timeline: Whether per-span tuples are kept for the Chrome
            export.  Off by default: aggregate-only mode is what the
            ≤5%-overhead budget is measured against.
        root_child: Cumulative duration of spans closed at stack depth
            zero.  No ``"event"`` span is pushed per dispatch; spans
            opened inside event actions therefore close as stack roots,
            and the runner subtracts this accumulator from its engine
            bracket to get the ``event`` phase's self time
            (:meth:`add_bulk`).
    """

    __slots__ = (
        "phases",
        "events",
        "events_dropped",
        "max_events",
        "timeline",
        "root_child",
        "_stack",
        "_origin",
    )

    def __init__(self, max_events: int = MAX_EVENTS, timeline: bool = False) -> None:
        self.phases: Dict[str, List[float]] = {}
        self.events: List[Tuple[str, float, float]] = []
        self.events_dropped = 0
        self.max_events = max_events
        self.timeline = timeline
        self.root_child = 0.0
        # Open-span stack of [name, start, child_time] entries; end()
        # folds a span's duration into its parent's child_time so self
        # time falls out by subtraction.
        self._stack: List[List[object]] = []
        self._origin = perf_counter()

    # ------------------------------------------------------------------
    def begin(self, name: str) -> List[object]:
        """Open a span; returns the token :meth:`end` expects back."""
        entry: List[object] = [name, perf_counter(), 0.0]
        self._stack.append(entry)
        return entry

    def end(self, entry: List[object]) -> None:
        """Close the innermost span (must be ``begin``'s return)."""
        now = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child = entry
        duration = now - start  # type: ignore[operator]
        agg = self.phases.get(name)  # type: ignore[arg-type]
        if agg is None:
            self.phases[name] = [1, duration, duration - child]  # type: ignore[index,operator]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child  # type: ignore[operator]
        if stack:
            stack[-1][2] += duration  # type: ignore[operator]
        else:
            self.root_child += duration  # type: ignore[operator]
        if self.timeline:
            self.add_slice(name, start, duration)  # type: ignore[arg-type]

    def add_slice(self, name: str, start: float, duration: float) -> None:
        """Keep one timeline slice, or count it dropped past the cap.

        ``start`` is a ``perf_counter`` stamp.  :meth:`end` calls this in
        timeline mode; so does the runner, once per engine bracket.
        """
        if len(self.events) < self.max_events:
            self.events.append((name, start - self._origin, duration))
        else:
            self.events_dropped += 1

    def add_bulk(self, name: str, count: int, cumulative: float, self_time: float) -> None:
        """Fold a pre-measured batch of same-name spans into the totals.

        The runner times its whole engine drive with two clock reads
        and registers the events it fired here once per ``run()``
        call — no per-event stack traffic.  ``self_time`` is the
        caller's cumulative minus whatever child time it attributes to
        the batch (the runner uses :attr:`root_child`).
        """
        if count <= 0:
            return
        agg = self.phases.get(name)
        if agg is None:
            self.phases[name] = [count, cumulative, self_time]
        else:
            agg[0] += count
            agg[1] += cumulative
            agg[2] += self_time

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager convenience for non-hot-path callers."""
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    # ------------------------------------------------------------------
    def fold_into(self, telemetry) -> None:
        """Aggregate per-phase totals into a Telemetry registry.

        Per phase ``p``: counter ``span_<p>`` (entries), timers
        ``span_<p>_s`` (cumulative) and ``span_<p>_self_s`` (self).
        ``span_events_dropped`` counts spans missing from the Chrome
        export.  All names live in the docs/observability.md catalog.
        """
        for name, (count, cumulative, self_time) in sorted(self.phases.items()):
            telemetry.count(f"span_{name}", int(count))
            telemetry.add_time(f"span_{name}_s", cumulative)
            telemetry.add_time(f"span_{name}_self_s", self_time)
        if self.events_dropped:
            telemetry.count("span_events_dropped", self.events_dropped)

    def chrome_trace(self) -> Dict[str, object]:
        """The recorder as a Chrome trace-event JSON document.

        Complete (``"X"``) events on one pid/tid with microsecond
        timestamps; Perfetto/``chrome://tracing`` reconstruct the
        nesting from the timestamps alone.
        """
        return {
            "traceEvents": [
                {
                    "name": name,
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": 0,
                    "tid": 0,
                }
                for name, start, duration in self.events
            ],
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, target: Union[str, Path]) -> None:
        """Write the :meth:`chrome_trace` document as compact JSON.

        Serialized by hand rather than ``json.dump``: the document is
        one fixed-schema array, and direct ``%``-formatting writes it
        nearly an order of magnitude faster, which keeps the export
        from dominating small profiled runs.  Phase names are escaped
        through ``json.dumps`` (memoized — there are only a handful).
        """
        path = Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        quoted: Dict[str, str] = {}
        parts = []
        for name, start, duration in self.events:
            qname = quoted.get(name)
            if qname is None:
                qname = quoted[name] = json.dumps(name)
            parts.append(
                '{"name":%s,"ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":0}'
                % (qname, start * 1e6, duration * 1e6)
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"traceEvents":[')
            fh.write(",".join(parts))
            fh.write('],"displayTimeUnit":"ms"}\n')


def phase_table(snapshot, total_key: str = "run_wall_s") -> str:
    """Per-phase hot-spot table from a telemetry snapshot.

    Reads the ``span_*`` names :meth:`SpanRecorder.fold_into` wrote —
    so it works on any :class:`~repro.obs.telemetry.TelemetrySnapshot`
    (a finished run's ``metrics.telemetry``), no recorder required.
    Rows sort by self time, the profiler's ordering; the share column
    is self time over the ``total_key`` timer when present.

    >>> from repro.obs.telemetry import Telemetry
    >>> telemetry = Telemetry()
    >>> recorder = SpanRecorder()
    >>> token = recorder.begin("dp_solve"); recorder.end(token)
    >>> recorder.fold_into(telemetry)
    >>> print(phase_table(telemetry.snapshot()).splitlines()[0])
    phase     count  cum (s)  self (s)  self %
    """
    from repro.metrics.report import format_table

    phases = []
    for name, count in snapshot.counters.items():
        if not name.startswith("span_") or name == "span_events_dropped":
            continue
        phase = name[len("span_") :]
        phases.append(
            (
                phase,
                count,
                snapshot.timers.get(f"span_{phase}_s", 0.0),
                snapshot.timers.get(f"span_{phase}_self_s", 0.0),
            )
        )
    if not phases:
        return "(no span telemetry; run with spans enabled)"
    total = snapshot.timers.get(total_key, 0.0)
    if total <= 0.0:
        total = sum(self_time for _, _, _, self_time in phases)
    phases.sort(key=lambda row: row[3], reverse=True)
    rows = [
        [
            phase,
            count,
            f"{cumulative:.4f}",
            f"{self_time:.4f}",
            f"{(self_time / total if total else 0.0):.1%}",
        ]
        for phase, count, cumulative, self_time in phases
    ]
    table = format_table(["phase", "count", "cum (s)", "self (s)", "self %"], rows)
    # format_table right-justifies; phase names read better flush left.
    lines = table.splitlines()
    width = len(lines[1].split("  ")[0])
    return "\n".join(
        f"{line[:width].strip():<{width}}{line[width:]}" for line in lines
    )


# ----------------------------------------------------------------------
# Module-level hook for instrumented library code
# ----------------------------------------------------------------------
_ACTIVE: Optional[SpanRecorder] = None


def current() -> Optional[SpanRecorder]:
    """The recorder installed by the innermost :func:`activated`."""
    return _ACTIVE


@contextmanager
def activated(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install ``recorder`` as the active recorder for the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


def begin(name: str) -> Optional[List[object]]:
    """Open a span on the active recorder; ``None`` when none is active.

    The hook instrumented library code calls unconditionally — one
    global load plus a comparison when no recorder is installed.
    """
    recorder = _ACTIVE
    if recorder is None:
        return None
    return recorder.begin(name)


def end(token: Optional[List[object]]) -> None:
    """Close a span opened by :func:`begin` (no-op on a ``None`` token)."""
    if token is not None:
        recorder = _ACTIVE
        if recorder is not None:
            recorder.end(token)


__all__ = [
    "MAX_EVENTS",
    "PHASES",
    "SpanRecorder",
    "activated",
    "begin",
    "current",
    "end",
    "phase_table",
]
