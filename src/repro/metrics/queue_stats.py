"""Queue-dynamics statistics.

The paper's §V reasons about queue behaviour (jobs waiting behind a
large head, fragmentation holes) but reports only per-job means.  A
:class:`QueueTracker` integrates the *queue process* exactly:

- queue length (jobs waiting) over time,
- backlog (processor-seconds of waiting work) over time,

from which mean queue length and mean backlog follow by Little's-law-
style time averaging.  The runner feeds it on every arrival/start, so
the numbers are exact integrals, not samples, held in O(1) state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class QueueSummary:
    """Time-averaged queue statistics over a run window."""

    mean_queue_length: float
    max_queue_length: int
    mean_backlog: float  # processor-seconds of estimated waiting work
    max_backlog: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"queue: mean {self.mean_queue_length:.2f} / max {self.max_queue_length} jobs; "
            f"backlog: mean {self.mean_backlog:.3g} / max {self.max_backlog:.3g} proc·s"
        )

    @classmethod
    def over(cls, window: "QueueWindow", span: float) -> "QueueSummary":
        """Time averages of a :meth:`QueueTracker.window` reading over
        a window ``span`` seconds long (zero means for an empty one)."""
        length_area, max_length, backlog_area, max_backlog = window
        return cls(
            mean_queue_length=length_area / span if span > 0 else 0.0,
            max_queue_length=max_length,
            mean_backlog=backlog_area / span if span > 0 else 0.0,
            max_backlog=max_backlog,
        )


#: A :meth:`QueueTracker.window` reading: queue-length area (job-seconds),
#: max queue length, backlog area (processor-seconds²) and max backlog.
QueueWindow = Tuple[float, int, float, float]


class QueueTracker:
    """Exact O(1) integrator of the queue length and backlog step functions.

    Like :class:`~repro.cluster.accounting.UtilizationTracker`, it
    answers exactly for a horizon at or after its last observation and
    raises :class:`ValueError` before it.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._start_time = start_time
        #: Instant of the last observation of any kind.
        self._last_time = start_time
        self._length = 0
        self._length_area = 0.0
        # The length integral advances only where the length changes, so
        # a backlog-only change never splits one of its rectangles.
        self._length_time = start_time
        # Tracked at every transition, so zero-measure transient peaks
        # (N arrivals and a start at one instant) still count.
        self._max_length = 0
        self._backlog = 0.0
        self._backlog_area = 0.0
        self._max_backlog = 0.0

    # ------------------------------------------------------------------
    def on_enqueue(self, time: float, work: float) -> None:
        """A job entered the waiting queue (``work`` = num × estimate)."""
        self._advance(time)
        length = self._step_length(time, 1)
        if length > self._max_length:
            self._max_length = length
        backlog = self._backlog + work
        self._backlog = backlog
        if backlog > self._max_backlog:
            self._max_backlog = backlog

    def on_dequeue(self, time: float, work: float) -> None:
        """A job left the waiting queue (started)."""
        self._advance(time)
        length = self._step_length(time, -1)
        assert length >= 0, "queue length went negative"
        backlog = self._backlog - work
        self._backlog = backlog if backlog > 0.0 else 0.0

    def on_work_changed(self, time: float, delta: float) -> None:
        """A queued job's estimated work changed (ECC on a queued job)."""
        self._advance(time)
        backlog = self._backlog + delta
        if backlog < 0.0:
            backlog = 0.0
        self._backlog = backlog
        if backlog > self._max_backlog:
            self._max_backlog = backlog

    def _advance(self, time: float) -> None:
        dt = time - self._last_time
        if dt > 0:
            self._backlog_area += self._backlog * dt
            self._last_time = time
        elif dt < 0:
            raise ValueError(
                f"queue observations must be time-ordered: {time} < {self._last_time}"
            )

    def _step_length(self, time: float, delta: int) -> int:
        """Close the length rectangle up to ``time``; apply ``delta``."""
        if time != self._length_time:
            self._length_area += self._length * (time - self._length_time)
            self._length_time = time
        length = self._length + delta
        self._length = length
        return length

    # ------------------------------------------------------------------
    def window(self, until: float) -> QueueWindow:
        """The integrals and maxima over ``[start, until]``; commits nothing.

        Raises:
            ValueError: when ``until`` precedes the last observation.
        """
        if until < self._last_time:
            raise ValueError(
                f"queue horizon {until} precedes the last observation at "
                f"{self._last_time}; read the window when it closes"
            )
        return (
            self._length_area + self._length * (until - self._length_time),
            self._max_length,
            self._backlog_area + self._backlog * (until - self._last_time),
            self._max_backlog,
        )

    def summary(self, until: Optional[float] = None) -> QueueSummary:
        """Time-averaged statistics over ``[start, until]``.

        ``until`` defaults to the last observation.

        Raises:
            ValueError: when ``until`` precedes the last observation.
        """
        horizon = self._last_time if until is None else until
        return QueueSummary.over(self.window(horizon), horizon - self._start_time)


__all__ = ["QueueSummary", "QueueTracker", "QueueWindow"]
