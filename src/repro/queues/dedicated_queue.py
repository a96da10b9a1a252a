"""``W^d`` — waiting dedicated (interactive) jobs.

Invariant (Notations box): sorted by increasing requested start time,
``w_1.start <= w_2.start <= ... <= w_D.start``.  Ties broken by
submission then id so the order is total and deterministic.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional

from repro.workload.job import Job, JobState


def _key(job: Job) -> tuple:
    assert job.requested_start is not None
    return (job.requested_start, job.submit, job.job_id)


class DedicatedQueue:
    """Sorted list of waiting dedicated jobs."""

    def __init__(self) -> None:
        self._jobs: List[Job] = []
        #: Monotonic mutation counter (push/pop/remove bump it); keys
        #: the :meth:`cohead_group` cache.  Callers must never write it.
        self.version = 0
        # (version, group) pair behind cohead_group(); membership can
        # only change through push/pop/remove, all of which bump the
        # version, so a version match proves the cached prefix is
        # current.  Invalidation is implicit — no hook needed.
        self._cohead_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    @property
    def head(self) -> Optional[Job]:
        """``w_1^d`` — the earliest requested start (None when empty)."""
        return self._jobs[0] if self._jobs else None

    def jobs(self) -> List[Job]:
        """Snapshot in start-time order."""
        return list(self._jobs)

    # ------------------------------------------------------------------
    def push(self, job: Job) -> None:
        """Insert a dedicated job at its sorted position.

        Raises:
            ValueError: for non-dedicated jobs.
        """
        if not job.is_dedicated:
            raise ValueError(f"job {job.job_id} is not dedicated")
        job.state = JobState.QUEUED
        index = bisect.bisect_right(self._jobs, _key(job), key=_key)
        self._jobs.insert(index, job)
        self.version += 1

    def pop_head(self) -> Job:
        """Remove and return ``w_1^d``.

        Raises:
            IndexError: when empty.
        """
        job = self._jobs.pop(0)
        self.version += 1
        return job

    def remove(self, job: Job) -> None:
        """Remove a specific dedicated job.

        Raises:
            ValueError: when absent.
        """
        for index, queued in enumerate(self._jobs):
            if queued.job_id == job.job_id:
                del self._jobs[index]
                self.version += 1
                return
        raise ValueError(f"job {job.job_id} is not in the dedicated queue")

    # ------------------------------------------------------------------
    def due(self, now: float) -> List[Job]:
        """Jobs whose requested start time has been reached.

        The queue is sorted by requested start, so the due jobs are
        exactly a prefix — the walk stops at the first future start.
        """
        out: List[Job] = []
        for job in self._jobs:
            if job.requested_start is None or job.requested_start > now:
                break
            out.append(job)
        return out

    def cohead_group(self) -> List[Job]:
        """All queued dedicated jobs sharing the head's start time.

        This is the set Algorithm 2 sums as ``tot_start_num``
        (lines 16–17): dedicated jobs with *identical* start times must
        be reserved together.  Sorted order makes the group a prefix,
        so the walk stops at the first different start.

        The result is cached per queue version (``dedicated_freeze``
        asks every Hybrid-LOS cycle, the queue changes rarely) and
        must be treated as read-only by callers.
        """
        cached = self._cohead_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        group: List[Job] = []
        if self._jobs:
            head_start = self._jobs[0].requested_start
            for job in self._jobs:
                if job.requested_start != head_start:
                    break
                group.append(job)
        self._cohead_cache = (self.version, group)
        return group

    def check_invariants(self) -> None:
        """Assert start-time ordering (property tests)."""
        for earlier, later in zip(self._jobs, self._jobs[1:]):
            assert _key(earlier) <= _key(later), (
                f"dedicated ordering violation: {earlier.job_id} before {later.job_id}"
            )
        for job in self._jobs:
            assert job.is_dedicated, f"batch job {job.job_id} in dedicated queue"


__all__ = ["DedicatedQueue"]
