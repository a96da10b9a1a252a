"""Free-capacity profile over future time.

A :class:`CapacityProfile` is the step function of free processors
from ``now`` onward, given the running jobs' (estimate-based) kill-by
times and any reservations already made.  Conservative backfill plans
every queued job against it; tests use it as an independent oracle for
EASY/LOS shadow computations.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Tuple

from repro.queues.active_list import ActiveList


class CapacityProfile:
    """Piecewise-constant free capacity on ``[now, ∞)``.

    Internally a sorted list of breakpoints ``(time, free)`` where
    ``free`` holds from that time until the next breakpoint; the last
    breakpoint extends to infinity.
    """

    def __init__(self, total: int, now: float, free: int) -> None:
        if not 0 <= free <= total:
            raise ValueError(f"free={free} outside [0, {total}]")
        self.total = total
        self.now = now
        self._times: List[float] = [now]
        self._free: List[int] = [free]

    # ------------------------------------------------------------------
    @classmethod
    def from_active(cls, total: int, now: float, active: ActiveList) -> "CapacityProfile":
        """Profile implied by the running jobs' kill-by times.

        Consumes the active list's incrementally-maintained release
        breakpoints and builds the step function with one cumulative
        pass — O(breakpoints) instead of the O(A²) repeated
        ``_add_delta`` construction.  Releases at or before ``now``
        (over-estimate jobs still draining) fold into the initial free
        capacity, exactly as the old ``max(now, kill_by)`` clamp did.
        """
        profile = cls(total, now, total - active.total_used)
        times, nums = active.release_breakpoints()
        running = profile._free[0]
        for time, num in zip(times, nums):
            running += num
            if time <= now:
                profile._free[0] = running
            else:
                profile._times.append(time)
                profile._free.append(running)
        return profile

    def _add_delta(self, time: float, delta: int) -> None:
        """Shift free capacity by ``delta`` from ``time`` onward."""
        index = bisect.bisect_right(self._times, time) - 1
        if self._times[index] != time:
            self._times.insert(index + 1, time)
            self._free.insert(index + 1, self._free[index])
            index += 1
        for i in range(index, len(self._free)):
            self._free[i] += delta

    # ------------------------------------------------------------------
    def free_at(self, time: float) -> int:
        """Free processors at ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"time {time} precedes profile start {self.now}")
        index = bisect.bisect_right(self._times, time) - 1
        return self._free[index]

    def min_free(self, start: float, duration: float) -> int:
        """Minimum free capacity over ``[start, start + duration)``."""
        if duration <= 0:
            return self.free_at(start)
        end = start + duration
        lowest = self.free_at(start)
        index = bisect.bisect_right(self._times, start)
        while index < len(self._times) and self._times[index] < end:
            lowest = min(lowest, self._free[index])
            index += 1
        return lowest

    def earliest_start(self, num: int, duration: float) -> float:
        """Earliest ``t >= now`` with ``num`` processors free for ``duration``.

        Raises:
            ValueError: when ``num`` exceeds the machine (never feasible).
        """
        if num > self.total:
            raise ValueError(f"request {num} exceeds machine size {self.total}")
        for candidate in self._times:
            start = max(candidate, self.now)
            if self.min_free(start, duration) >= num:
                return start
        # The profile's final segment always has total free capacity in
        # well-formed simulations, so this is unreachable; guard anyway.
        return self._times[-1]  # pragma: no cover

    def reserve(self, start: float, num: int, duration: float) -> None:
        """Subtract ``num`` processors over ``[start, start + duration)``.

        Raises:
            ValueError: when the reservation would drive capacity
                negative (planner bug).
        """
        if self.min_free(start, duration) < num:
            raise ValueError(
                f"reservation of {num} procs at t={start} for {duration}s "
                "exceeds available capacity"
            )
        self._add_delta(start, -num)
        if math.isfinite(duration):
            self._add_delta(start + duration, num)

    def breakpoints(self) -> List[Tuple[float, int]]:
        """Snapshot of (time, free) steps (tests/debugging)."""
        return list(zip(self._times, self._free))


__all__ = ["CapacityProfile"]
