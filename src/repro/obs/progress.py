"""Sweep progress: per-run events with cache-hit accounting and ETA.

A long ``--parallel`` sweep used to print nothing until it finished.
This module defines the progress protocol the executor
(:mod:`repro.experiments.parallel`) speaks: a
:class:`ProgressTracker` owned by the **parent process** turns each
completed run into a :class:`ProgressEvent`, and any callable can
consume those events — :class:`ProgressReporter` renders them as
status lines on a terminal.

Fork-pool safety is structural, not accidental: workers never see the
tracker or the callback (neither is pickled into a
:class:`~repro.experiments.parallel.RunSpec`), so events fire exactly
once per run, in the parent, in submission order.

**ETA semantics**: cache hits are counted separately and treated as
free; the estimate is ``mean cold-run wall time × runs remaining``,
and is ``None`` until the first cold run completes.  Serial-retry
events (a worker crashed or timed out and the run re-executed in the
parent, docs/resilience.md) are flagged so reporters can surface the
degradation.

>>> events = []
>>> clock = iter([0.0, 0.0, 2.0, 4.0]).__next__
>>> tracker = ProgressTracker(total=3, callback=events.append, clock=clock)
>>> tracker.hit()                   # cache hit at t=0
>>> tracker.ran()                   # cold run finished at t=2
>>> tracker.ran(retried=True)       # serial retry finished at t=4
>>> [(e.kind, e.done, e.total) for e in events]
[('hit', 1, 3), ('run', 2, 3), ('retry', 3, 3)]
>>> events[1].eta_s                 # one cold run took 2s; one run left
2.0
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, TextIO


@dataclass(frozen=True)
class ProgressEvent:
    """One run of a batch completed (from cache, fresh, or by retry).

    Attributes:
        kind: ``"hit"`` (served from the run cache), ``"run"``
            (simulated), or ``"retry"`` (simulated serially in the
            parent after a worker crash/timeout).
        done: Runs completed so far, this one included.
        total: Runs in the batch.
        cached: ``done`` runs that were cache hits.
        fresh: ``done`` runs that were actually simulated (includes
            retries).
        retried: ``fresh`` runs that needed the serial-retry path.
        elapsed_s: Wall seconds since the batch started.
        eta_s: Estimated seconds to completion (None until the first
            cold run finishes; assumes remaining runs are cold).
    """

    kind: str
    done: int
    total: int
    cached: int
    fresh: int
    retried: int
    elapsed_s: float
    eta_s: Optional[float]


class ProgressTracker:
    """Parent-side accounting that turns run completions into events.

    Args:
        total: Number of runs in the batch.
        callback: Receives one :class:`ProgressEvent` per completion.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        total: int,
        callback: Callable[[ProgressEvent], None],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self._callback = callback
        self._clock = clock
        self._started = clock()
        self._cached = 0
        self._fresh = 0
        self._retried = 0

    # ------------------------------------------------------------------
    def hit(self) -> None:
        """One run was served from the run cache."""
        self._cached += 1
        self._emit("hit")

    def ran(self, retried: bool = False) -> None:
        """One run was simulated (``retried``: on the serial-retry path)."""
        self._fresh += 1
        if retried:
            self._retried += 1
        self._emit("retry" if retried else "run")

    # ------------------------------------------------------------------
    def _emit(self, kind: str) -> None:
        done = self._cached + self._fresh
        elapsed = self._clock() - self._started
        eta: Optional[float] = None
        if self._fresh > 0:
            remaining = self.total - done
            eta = (elapsed / self._fresh) * remaining
        self._callback(
            ProgressEvent(
                kind=kind,
                done=done,
                total=self.total,
                cached=self._cached,
                fresh=self._fresh,
                retried=self._retried,
                elapsed_s=elapsed,
                eta_s=eta,
            )
        )


def format_duration(seconds: float) -> str:
    """Compact human duration: ``4.2s``, ``2m07s``, ``1h02m``.

    >>> format_duration(4.21)
    '4.2s'
    >>> format_duration(127)
    '2m07s'
    >>> format_duration(3725)
    '1h02m'
    """
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def format_event(event: ProgressEvent) -> str:
    """One status line for ``event``.

    >>> format_event(ProgressEvent("run", 3, 12, 2, 1, 0, 4.2, 12.8))
    'runs 3/12 (2 cached, 1 simulated) elapsed 4.2s eta 12.8s'
    """
    line = (
        f"runs {event.done}/{event.total} "
        f"({event.cached} cached, {event.fresh} simulated)"
    )
    if event.retried:
        line += f" [{event.retried} serial-retried]"
    line += f" elapsed {format_duration(event.elapsed_s)}"
    if event.eta_s is not None:
        line += f" eta {format_duration(event.eta_s)}"
    return line


class ProgressReporter:
    """Renders progress events as status lines on a stream.

    On a TTY, lines overwrite each other (carriage return); on plain
    streams (CI logs, files) each event is its own line.  Serial-retry
    events are always written on their own line so the warning is
    never overwritten.

    Args:
        stream: Output stream; defaults to ``sys.stderr``.
        label: Optional prefix naming the batch (e.g. the sweep).
    """

    def __init__(self, stream: Optional[TextIO] = None, label: str = "") -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._dirty = False

    def __call__(self, event: ProgressEvent) -> None:
        line = format_event(event)
        if self.label:
            line = f"{self.label}: {line}"
        if event.kind == "retry":
            line += "  (worker crash/timeout; retried serially)"
        if self._tty and event.kind != "retry":
            self.stream.write("\r" + line)
            self._dirty = True
            if event.done == event.total:
                self.stream.write("\n")
                self._dirty = False
        else:
            if self._dirty:
                self.stream.write("\n")
                self._dirty = False
            self.stream.write(line + "\n")
        self.stream.flush()


class ProgressSummary:
    """Silently collects events into end-of-batch totals.

    The CLI always installs one of these (optionally forwarding to a
    :class:`ProgressReporter` when ``--progress`` is on), so the final
    sweep summary — cached vs. simulated runs, serial retries, cache
    hit rate — is printed even on otherwise-quiet runs.

    >>> summary = ProgressSummary()
    >>> summary(ProgressEvent("hit", 1, 3, 1, 0, 0, 0.0, None))
    >>> summary(ProgressEvent("run", 2, 3, 1, 1, 0, 2.0, 2.0))
    >>> summary(ProgressEvent("retry", 3, 3, 1, 2, 1, 4.0, 0.0))
    >>> summary.render()
    'sweep: 3 runs in 4.0s (1 cached, 2 simulated, 1 serial-retried; 33% cache hit rate)'
    """

    def __init__(
        self, forward: Optional[Callable[[ProgressEvent], None]] = None
    ) -> None:
        self.last: Optional[ProgressEvent] = None
        self._forward = forward

    def __call__(self, event: ProgressEvent) -> None:
        self.last = event
        if self._forward is not None:
            self._forward(event)

    def render(self, hit_rate: Optional[float] = None) -> str:
        """The end-of-sweep summary line.

        Args:
            hit_rate: Cache hit rate to report; defaults to
                ``cached / done`` from the events (pass
                ``CacheStats.hit_rate`` for the cache's own view,
                which also counts lookups outside this batch).
        """
        event = self.last
        if event is None:
            return "sweep: no runs"
        if hit_rate is None:
            hit_rate = event.cached / event.done if event.done else 0.0
        parts = [f"{event.cached} cached", f"{event.fresh} simulated"]
        if event.retried:
            parts.append(f"{event.retried} serial-retried")
        return (
            f"sweep: {event.done} runs in {format_duration(event.elapsed_s)} "
            f"({', '.join(parts)}; {hit_rate:.0%} cache hit rate)"
        )


__all__ = [
    "ProgressEvent",
    "ProgressReporter",
    "ProgressSummary",
    "ProgressTracker",
    "format_duration",
    "format_event",
]
