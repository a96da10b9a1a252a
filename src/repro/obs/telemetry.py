"""Per-run telemetry: counters and wall timers.

One :class:`Telemetry` registry rides along with every simulation run
and is snapshotted into :attr:`RunMetrics.telemetry
<repro.metrics.records.RunMetrics>` when the run finishes.  It answers
"how hard did the scheduler work" questions that the paper-facing
metrics (utilization, wait, slowdown) deliberately abstract away:
scheduling passes and their wall time, DP cells touched, backfill
scan attempts, ECC commands processed.  Queue depth is not sampled
here: :class:`~repro.metrics.queue_stats.QueueTracker` keeps it
exactly (``RunMetrics.queue``), and
:func:`repro.obs.analytics.replay` rebuilds the full timeline from a
trace.  The counter catalog lives in docs/observability.md.

Two design rules, both load-bearing:

- **Observe-only.** Nothing here is read by any policy; telemetry can
  never change a scheduling decision.  Deterministic counters are
  identical across serial/parallel/traced runs; wall timers are
  inherently machine-dependent, which is why the ``RunMetrics``
  field carries ``compare=False`` — equality (and therefore the
  determinism test suite and the run cache) sees only the paper
  metrics.
- **Near-zero cost.** Instrumented library code (``repro.core.dp``,
  ``repro.core.easy``) reports through the module-level :func:`bump`
  hook, which is one global load plus a ``None`` check when no
  registry is active — cheap enough to leave compiled in everywhere.

The active registry is installed per-run with :func:`activated`
(worker processes each install their own; runs never nest):

>>> telemetry = Telemetry()
>>> with activated(telemetry):
...     bump("dp_cells", 5)
...     bump("dp_cells")
>>> telemetry.counters["dp_cells"]
6
>>> bump("dp_cells")   # no active registry: dropped, not an error
>>> telemetry.counters["dp_cells"]
6
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable end-of-run view of one registry.

    Attributes:
        counters: Monotonic event counts (deterministic).
        timers: Accumulated wall-clock seconds per timer name
            (machine-dependent; excluded from metric equality).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)

    def counter(self, name: str, default: int = 0) -> int:
        """One counter's value (``default`` when never bumped)."""
        return self.counters.get(name, default)

    def timer(self, name: str, default: float = 0.0) -> float:
        """One timer's accumulated seconds."""
        return self.timers.get(name, default)

    def as_columns(self) -> Dict[str, float]:
        """Flat ``{name: value}`` view for tabular export."""
        columns: Dict[str, float] = {}
        columns.update({name: float(count) for name, count in self.counters.items()})
        columns.update(self.timers)
        return columns


def format_snapshot(snapshot: TelemetrySnapshot) -> str:
    """One snapshot as a monospace table (counters, then timers).

    The single rendering used wherever telemetry reaches a terminal
    (``repro-sim --telemetry``).

    >>> print(format_snapshot(TelemetrySnapshot(
    ...     counters={"sched_passes": 12},
    ...     timers={"run_wall_s": 0.25})))
    kind     name           value
    -------  ------------  ------
    counter  sched_passes      12
    timer    run_wall_s    0.250s
    """
    from repro.metrics.report import format_table

    rows: List[List[object]] = []
    for name in sorted(snapshot.counters):
        rows.append(["counter", name, snapshot.counters[name]])
    for name in sorted(snapshot.timers):
        rows.append(["timer", name, f"{snapshot.timers[name]:.3f}s"])
    if not rows:
        return "(empty telemetry snapshot)"
    table = format_table(["kind", "name", "value"], rows)
    # format_table right-justifies; the first two columns read better
    # left-justified for a key/value listing.
    lines = table.splitlines()
    widths = [len(part) for part in lines[1].split("  ")]
    out = []
    for line in lines:
        kind = line[: widths[0]].strip()
        name = line[widths[0] + 2 : widths[0] + 2 + widths[1]].strip()
        value = line[widths[0] + widths[1] + 4 :]
        out.append(f"{kind:<{widths[0]}}  {name:<{widths[1]}}  {value}")
    return "\n".join(out)


class Telemetry:
    """Mutable per-run registry of counters and wall timers."""

    __slots__ = ("counters", "timers")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock ``seconds`` on timer ``name``."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    # ------------------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the registry's current state."""
        return TelemetrySnapshot(
            counters=dict(self.counters), timers=dict(self.timers)
        )


# ----------------------------------------------------------------------
# Module-level hook for instrumented library code
# ----------------------------------------------------------------------
_ACTIVE: Optional[Telemetry] = None


def current() -> Optional[Telemetry]:
    """The registry installed by the innermost :func:`activated`."""
    return _ACTIVE


@contextmanager
def activated(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the active registry for the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


def bump(name: str, n: int = 1) -> None:
    """Count ``n`` on the active registry; no-op when none is active.

    This is the hook instrumented hot paths call unconditionally —
    when no run is in flight it costs a global load and a comparison.
    """
    telemetry = _ACTIVE
    if telemetry is not None:
        telemetry.count(name, n)


__all__ = [
    "Telemetry",
    "TelemetrySnapshot",
    "activated",
    "bump",
    "current",
    "format_snapshot",
]
