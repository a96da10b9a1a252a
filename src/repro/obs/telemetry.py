"""Per-run telemetry: counters, wall timers, bounded timeseries.

One :class:`Telemetry` registry rides along with every simulation run
and is snapshotted into :attr:`RunMetrics.telemetry
<repro.metrics.records.RunMetrics>` when the run finishes.  It answers
"how hard did the scheduler work" questions that the paper-facing
metrics (utilization, wait, slowdown) deliberately abstract away:
scheduling passes and their wall time, DP cells touched, backfill
scan attempts, ECC commands processed, queue depth over time.  The
counter catalog lives in docs/observability.md.

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

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Per-series sample cap; above it the series is decimated (every
#: other point dropped, sampling stride doubled), so memory stays
#: bounded while coverage stays uniform.  Decimation is a pure
#: function of the event sequence — deterministic across runs.
MAX_SAMPLES = 4096


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable end-of-run view of one registry.

    Attributes:
        counters: Monotonic event counts (deterministic).
        timers: Accumulated wall-clock seconds per timer name
            (machine-dependent; excluded from metric equality).
        series: name -> ((time, value), ...) sampled timeseries,
            decimated past :data:`MAX_SAMPLES` points.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, Tuple[Tuple[float, float], ...]] = field(default_factory=dict)

    def counter(self, name: str, default: int = 0) -> int:
        """One counter's value (``default`` when never bumped)."""
        return self.counters.get(name, default)

    def timer(self, name: str, default: float = 0.0) -> float:
        """One timer's accumulated seconds."""
        return self.timers.get(name, default)

    def series_max(self, name: str, default: float = 0.0) -> float:
        """Peak value of a sampled series (``default`` when empty)."""
        points = self.series.get(name)
        if not points:
            return default
        return max(value for _, value in points)

    def as_columns(self) -> Dict[str, float]:
        """Flat ``{name: value}`` view for tabular export."""
        columns: Dict[str, float] = {}
        columns.update({name: float(count) for name, count in self.counters.items()})
        columns.update(self.timers)
        return columns


def format_snapshot(snapshot: TelemetrySnapshot) -> str:
    """One snapshot as a monospace table (counters, timers, peaks).

    The single rendering used wherever telemetry reaches a terminal
    (``repro-sim --telemetry``).

    >>> print(format_snapshot(TelemetrySnapshot(
    ...     counters={"sched_passes": 12},
    ...     timers={"run_wall_s": 0.25},
    ...     series={"queue_depth": ((0.0, 1.0), (5.0, 4.0))})))
    kind     name           value
    -------  ------------  ------
    counter  sched_passes      12
    timer    run_wall_s    0.250s
    peak     queue_depth        4
    """
    from repro.metrics.report import format_table

    rows: List[List[object]] = []
    for name in sorted(snapshot.counters):
        rows.append(["counter", name, snapshot.counters[name]])
    for name in sorted(snapshot.timers):
        rows.append(["timer", name, f"{snapshot.timers[name]:.3f}s"])
    for name in sorted(snapshot.series):
        rows.append(["peak", name, f"{snapshot.series_max(name):g}"])
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


class _Series:
    """Bounded timeseries with deterministic stride decimation."""

    __slots__ = ("points", "stride", "_skip", "dropped")

    def __init__(self) -> None:
        self.points: List[Tuple[float, float]] = []
        self.stride = 1
        self._skip = 0
        #: Observations not present in ``points`` — skipped by the
        #: current stride or discarded by a decimation pass.  Lets
        #: readers tell a sparse series from a downsampled one
        #: (surfaced as a ``<name>_samples_dropped`` counter).
        self.dropped = 0

    def add(self, t: float, value: float) -> None:
        if self._skip:
            self._skip -= 1
            self.dropped += 1
            return
        self.points.append((t, value))
        if len(self.points) >= MAX_SAMPLES:
            before = len(self.points)
            del self.points[1::2]
            self.dropped += before - len(self.points)
            self.stride *= 2
        self._skip = self.stride - 1


class Telemetry:
    """Mutable per-run registry of counters, timers and timeseries."""

    __slots__ = ("counters", "timers", "_series")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self._series: Dict[str, _Series] = {}

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock ``seconds`` on timer ``name``."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def timeit(self, name: str) -> Iterator[None]:
        """Context manager accumulating the block's wall time."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    def sample(self, name: str, t: float, value: float) -> None:
        """Append a ``(t, value)`` point to series ``name`` (bounded)."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series()
        series.add(t, value)

    def series_handle(self, name: str) -> _Series:
        """The mutable series object for ``name`` (creating it empty).

        Hot paths that sample one series thousands of times per run
        hold the handle and call :meth:`_Series.add` directly, skipping
        the per-sample dict lookup.  An empty handle leaves no trace in
        :meth:`snapshot`.
        """
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series()
        return series

    # ------------------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the registry's current state.

        Downsampled series additionally surface a deterministic
        ``<name>_samples_dropped`` counter so readers can tell a
        genuinely sparse series from one the bounded buffer thinned.
        """
        counters = dict(self.counters)
        for name, series in self._series.items():
            if series.dropped:
                counters[f"{name}_samples_dropped"] = (
                    counters.get(f"{name}_samples_dropped", 0) + series.dropped
                )
        return TelemetrySnapshot(
            counters=counters,
            timers={name: value for name, value in self.timers.items()},
            series={
                name: tuple(series.points)
                for name, series in self._series.items()
                if series.points
            },
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
    "MAX_SAMPLES",
    "Telemetry",
    "TelemetrySnapshot",
    "activated",
    "bump",
    "current",
    "format_snapshot",
]
