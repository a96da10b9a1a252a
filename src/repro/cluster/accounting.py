"""Exact utilization accounting in O(1) memory.

Mean system utilization — the paper's headline metric — is the integral
of busy processors over time divided by ``M * T``.  Because the busy
level is a step function that only changes at allocation events, the
integral is computed exactly (no sampling error) by accumulating
``level * dt`` between consecutive observations.

The tracker keeps only the running integral, the current level and the
observation horizon, so it answers exactly at any scale — for a horizon
at or after its last observation.  Earlier horizons raise
:class:`ValueError`: the step function before the last observation is
not kept, so a caller that needs a window ending earlier reads the
integral when the window closes (the runner does this at every
finish; docs/scaling.md).
"""

from __future__ import annotations

from typing import Optional


class UtilizationTracker:
    """Integrates busy processor-time from allocation observations.

    The tracker is fed the *new* busy level at every change (see
    :meth:`repro.cluster.machine.Machine.allocate`).  Observations must
    be non-decreasing in time; same-time updates overwrite the level,
    matching the semantics of several releases/allocations happening at
    one simulation instant.
    """

    __slots__ = ("_start_time", "_last_time", "_last_level", "_busy_area")

    def __init__(self, start_time: float = 0.0, level: int = 0) -> None:
        t = float(start_time)
        self._start_time = t
        self._last_time = t
        self._last_level = int(level)
        self._busy_area = 0.0  # processor-seconds integrated so far

    # ------------------------------------------------------------------
    @property
    def start_time(self) -> float:
        """Time of the first observation."""
        return self._start_time

    @property
    def last_time(self) -> float:
        """Time of the most recent observation."""
        return self._last_time

    def observe(self, time: float, level: int) -> None:
        """Record that the busy level became ``level`` at ``time``.

        Raises:
            ValueError: when ``time`` precedes the last observation.
        """
        last_time = self._last_time
        if time != last_time:
            if time < last_time:
                raise ValueError(
                    f"utilization observations must be time-ordered: {time} < {last_time}"
                )
            self._busy_area += self._last_level * (time - last_time)
            self._last_time = time
        # Same-instant transitions collapse: only the final level at an
        # instant occupies any measure of time.
        self._last_level = int(level)

    # ------------------------------------------------------------------
    def busy_area(self, until: Optional[float] = None) -> float:
        """Busy processor-seconds in ``[start_time, until]``.

        ``until`` defaults to the last observation; past it the
        current level is assumed to persist.

        Raises:
            ValueError: when ``until`` precedes the last observation.
        """
        last_time = self._last_time
        if until is None:
            return self._busy_area
        if until < last_time:
            raise ValueError(
                f"busy_area horizon {until} precedes the last observation at "
                f"{last_time}; read the integral when the window closes"
            )
        return self._busy_area + self._last_level * (until - last_time)

    def mean_utilization(self, total: int, until: Optional[float] = None) -> float:
        """Mean fraction of ``total`` processors busy over the window.

        Returns 0.0 for a zero-length window (empty experiment).

        Raises:
            ValueError: when ``until`` precedes the last observation.
        """
        horizon = self._last_time if until is None else float(until)
        return utilization_of(self.busy_area(until=horizon), total, horizon - self._start_time)


def utilization_of(busy_area: float, total: int, span: float) -> float:
    """Mean utilization of a busy area over a window.

    ``busy_area`` processor-seconds on ``total`` processors over
    ``span`` seconds; 0.0 for an empty window.
    """
    if span <= 0 or total <= 0:
        return 0.0
    return busy_area / (total * span)


__all__ = ["UtilizationTracker", "utilization_of"]
