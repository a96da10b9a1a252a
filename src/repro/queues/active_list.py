"""``A`` — the sorted list of active (running) jobs.

Invariant (Notations box): sorted by increasing residual execution
time ``a_1.res <= ... <= a_A.res``.  Residuals of running jobs all
shrink at the same rate, so ordering by the absolute *kill-by* time
(``start + estimate``) is equivalent and stable between events — until
an ECC changes a kill-by time, which is why :meth:`resort` exists and
is called by the ECC processor after every applied command.

Alongside the ordering, the list maintains two derived quantities
incrementally so the scheduling hot path never re-scans it:

- ``total_used`` — the processor sum ``Σ a_i.num``, updated O(1) on
  add/remove (``ctx.free`` reads it every scheduler pass);
- the aggregated *release breakpoints* — sorted ``(kill_by, Σ num)``
  steps feeding :meth:`repro.core.profile.CapacityProfile.from_active`
  — updated by bisect on add/remove, with a dirty flag forcing a full
  rebuild after :meth:`resort` (an ECC moved a kill-by time we no
  longer know).  Full rebuilds are counted by the ``profile_rebuilds``
  telemetry counter.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from repro.obs.spans import begin as _span_begin, end as _span_end
from repro.obs.telemetry import bump
from repro.workload.job import Job, JobState


class ActiveList:
    """Running jobs ordered by kill-by time (equivalently, residual)."""

    def __init__(self) -> None:
        self._jobs: List[Job] = []
        # Parallel sort keys for self._jobs: bisecting a plain tuple
        # list never calls back into Python per comparison, unlike
        # bisect(..., key=self._key) (job starts are a hot path).
        self._keys: List[tuple] = []
        #: Processors held by running jobs (``Σ a_i.num``), maintained
        #: O(1) on add/remove.  A plain attribute, not a property —
        #: ``ctx.free`` reads it every scheduler pass.  Callers must
        #: never write it.
        self.total_used = 0
        # Aggregated releases: sorted unique kill-by times and the
        # processors freed at each.  Maintained incrementally while
        # clean; `_releases_dirty` means kill-by times moved under us
        # (ECC) and the next reader must rebuild.
        self._release_times: List[float] = []
        self._release_nums: List[int] = []
        self._releases_dirty = False

    # ------------------------------------------------------------------
    def _key(self, job: Job) -> tuple:
        return (job.kill_by(), job.job_id)

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __getitem__(self, index: int) -> Job:
        return self._jobs[index]

    def jobs(self) -> List[Job]:
        """Snapshot in increasing-residual order."""
        return list(self._jobs)

    def residuals(self, now: float) -> List[float]:
        """Residual runtimes at ``now``, in list order (non-decreasing)."""
        return [job.residual(now) for job in self._jobs]

    def last(self) -> Optional[Job]:
        """``a_A`` — the longest-residual job (None when idle)."""
        return self._jobs[-1] if self._jobs else None

    # ------------------------------------------------------------------
    def add(self, job: Job) -> None:
        """Insert a newly started job at its sorted position.

        Requires the job to be started (``start_time`` set) so the
        kill-by key exists; flips state to RUNNING.
        """
        if job.start_time is None:
            raise ValueError(f"job {job.job_id} has no start time")
        job.state = JobState.RUNNING
        kill_by = job.start_time + job.estimate
        key = (kill_by, job.job_id)
        index = bisect.bisect_right(self._keys, key)
        self._jobs.insert(index, job)
        self._keys.insert(index, key)
        self.total_used += job.num
        if not self._releases_dirty:
            self._shift_release(kill_by, job.num)

    def remove(self, job: Job) -> None:
        """Remove a finishing job.

        Raises:
            ValueError: when the job is not active.
        """
        job_id = job.job_id
        index: Optional[int] = None
        if job.start_time is not None:
            # Fast path: the sorted key list locates a running job by
            # bisect.  A job whose kill-by moved without resort() (no
            # such caller exists today) would miss; fall back to the
            # scan rather than mis-remove.
            key = (job.start_time + job.estimate, job_id)
            found = bisect.bisect_left(self._keys, key)
            if found < len(self._keys) and self._keys[found] == key:
                index = found
        if index is None or self._jobs[index].job_id != job_id:
            index = None
            for position, active in enumerate(self._jobs):
                if active.job_id == job_id:
                    index = position
                    break
            if index is None:
                raise ValueError(f"job {job.job_id} is not active")
        active = self._jobs[index]
        del self._jobs[index]
        kill_by = self._keys[index][0]
        del self._keys[index]
        self.total_used -= active.num
        if not self._releases_dirty:
            self._shift_release(kill_by, -active.num)

    def note_resize(self, delta: int) -> None:
        """Account a running job's processor-count change (EP/RP resize).

        The caller mutated ``job.num`` in place (through the ECC
        processor), so only the aggregate needs patching here; call
        :meth:`resort` afterwards when the resize also moved the job's
        kill-by time (work-conserving resizes always do).
        """
        self.total_used += delta
        self._releases_dirty = True

    def resort(self) -> None:
        """Re-establish ordering after kill-by times changed (ECCs).

        The old kill-by times are gone, so the aggregated releases can
        no longer be patched in place — mark them dirty and let the
        next :meth:`release_breakpoints` rebuild.
        """
        self._jobs.sort(key=self._key)
        self._keys = [self._key(job) for job in self._jobs]
        self._releases_dirty = True

    # ------------------------------------------------------------------
    def _shift_release(self, time: float, delta: int) -> None:
        """Add ``delta`` processors to the release step at ``time``."""
        times = self._release_times
        index = bisect.bisect_left(times, time)
        if index < len(times) and times[index] == time:
            self._release_nums[index] += delta
            if self._release_nums[index] == 0:
                del times[index]
                del self._release_nums[index]
        elif delta > 0:
            times.insert(index, time)
            self._release_nums.insert(index, delta)
        else:
            # Removing a step we never recorded: only reachable if a
            # kill-by moved without resort() — fall back to a rebuild.
            self._releases_dirty = True

    def _rebuild_releases(self) -> None:
        token = _span_begin("profile_rebuild")
        try:
            releases: dict[float, int] = {}
            for job in self._jobs:
                kill_by = job.kill_by()
                releases[kill_by] = releases.get(kill_by, 0) + job.num
            self._release_times = sorted(releases)
            self._release_nums = [releases[time] for time in self._release_times]
            self._releases_dirty = False
            bump("profile_rebuilds")
        finally:
            _span_end(token)

    def release_breakpoints(self) -> Tuple[List[float], List[int]]:
        """Aggregated ``(kill-by times, processors released)`` steps.

        Sorted ascending, one entry per distinct kill-by time.  Served
        from the incrementally-maintained structure; rebuilt from the
        job list (and counted as a ``profile_rebuilds``) when dirty.
        Callers must not mutate the returned lists.
        """
        if self._releases_dirty:
            self._rebuild_releases()
        return self._release_times, self._release_nums

    def used_at(self, time: float) -> int:
        """Processors held by jobs still scheduled to run at ``time``.

        ``Σ a_i.num`` over jobs with ``kill_by >= time`` — a bisect over
        the aggregated release steps plus a short tail sum, instead of
        a full scan of the active list (the dedicated-freeze hot path).
        """
        if self._releases_dirty:
            self._rebuild_releases()
        index = bisect.bisect_left(self._release_times, time)
        return sum(self._release_nums[index:])

    # ------------------------------------------------------------------
    def check_invariants(self, now: Optional[float] = None) -> None:
        """Assert ordering, state and derived-quantity invariants."""
        keys = [self._key(j) for j in self._jobs]
        assert keys == sorted(keys), "active list out of residual order"
        assert keys == self._keys, "parallel key list drifted"
        assert self.total_used == sum(job.num for job in self._jobs)
        if not self._releases_dirty:
            expected: dict[float, int] = {}
            for job in self._jobs:
                kill_by = job.kill_by()
                expected[kill_by] = expected.get(kill_by, 0) + job.num
            assert self._release_times == sorted(expected), "release times drifted"
            assert self._release_nums == [
                expected[time] for time in self._release_times
            ], "release sums drifted"
        for job in self._jobs:
            assert job.state is JobState.RUNNING, (job.job_id, job.state)
            if now is not None:
                assert job.start_time is not None and job.start_time <= now


__all__ = ["ActiveList"]
