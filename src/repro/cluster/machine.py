"""Capacity model of the simulated parallel machine.

The paper's testbed is a simulated BlueGene/P with 320 processors where
"only integer multiples of 32 processors can be assigned to jobs"
(§IV-A).  :class:`Machine` models exactly that: a flat processor pool
with a hard allocation granularity.  No torus topology or contiguity is
modelled because the paper does not model it either (see DESIGN.md §2).

Fault support (docs/resilience.md): with ``track_placement=True`` the
machine additionally assigns every allocation to concrete psets
(granularity units), so a pset can be *failed* — evicting whichever
allocation holds it and shrinking available capacity until the
matching repair.  Placement tracking is off by default; the fault-free
hot path is unchanged.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from repro.cluster.accounting import UtilizationTracker


class AllocationError(RuntimeError):
    """Raised on invalid allocate/release requests.

    These always indicate a scheduler bug (double start, capacity
    overflow, wrong granularity), so they are loud rather than soft.
    """


class Machine:
    """A parallel machine with granular, capacity-checked allocation.

    Args:
        total: Total number of processors (the paper's ``M``).
        granularity: Allocation unit in processors (32 on BlueGene/P).
            Every request must be a positive multiple of this.
        tracker: Optional utilization tracker; when provided, every
            allocation change is recorded so mean utilization can be
            integrated exactly.
        track_placement: Assign allocations to concrete psets so that
            :meth:`fail_unit` / :meth:`repair_unit` can take psets
            offline and evict overlapping jobs.  Off by default; the
            fault-free path carries no placement bookkeeping.

    Invariants (enforced on every call):
        * ``0 <= used <= available <= total``
        * every live allocation is a positive multiple of ``granularity``
        * allocation ids are unique among live allocations
        * (placement) owned psets exactly cover the allocations and
          never intersect the offline set
    """

    def __init__(
        self,
        total: int,
        granularity: int = 1,
        tracker: Optional[UtilizationTracker] = None,
        track_placement: bool = False,
    ) -> None:
        if total <= 0:
            raise ValueError(f"machine size must be positive, got {total}")
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        if total % granularity != 0:
            raise ValueError(
                f"machine size {total} is not a multiple of granularity {granularity}"
            )
        self.total = int(total)
        self.granularity = int(granularity)
        self.tracker = tracker
        self._allocations: Dict[Hashable, int] = {}
        self._used = 0
        # --- placement / fault state (only populated when tracking) ---
        self.track_placement = bool(track_placement)
        #: pset index -> owning allocation id (None = free); empty
        #: list when placement is untracked.
        self._unit_owner: List[Optional[Hashable]] = (
            [None] * (self.total // self.granularity) if track_placement else []
        )
        self._unit_of: Dict[Hashable, List[int]] = {}
        self._offline: Set[int] = set()
        self._offline_procs = 0
        # Degraded-time integral: accumulated seconds with >= 1 pset
        # offline, plus the open segment's start (None when healthy),
        # and the instant of the last pset failure or repair.
        self._degraded_accum = 0.0
        self._degraded_since: Optional[float] = None
        self._fault_time = float("-inf")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        """Processors currently allocated."""
        return self._used

    @property
    def offline(self) -> int:
        """Processors currently offline due to failed psets (0 when healthy).

        Kept as a plain counter (updated by fail/repair) rather than
        ``len(set) * granularity``: schedulers read free/available on
        every cycle pass, making this one of the hottest attributes in
        a simulation.
        """
        return self._offline_procs

    @property
    def available(self) -> int:
        """Processors not offline (``total`` on a healthy machine)."""
        return self.total - self._offline_procs

    @property
    def degraded(self) -> bool:
        """Whether at least one pset is currently offline."""
        return bool(self._offline)

    @property
    def free(self) -> int:
        """Processors currently free (the paper's ``m``).

        Offline psets are neither free nor used: ``free = total −
        offline − used``.
        """
        return self.total - self._offline_procs - self._used

    @property
    def units(self) -> int:
        """Machine size expressed in granularity units."""
        return self.total // self.granularity

    def free_units(self) -> int:
        """Free capacity in granularity units (exact by invariant)."""
        return self.free // self.granularity

    def holds(self, alloc_id: Hashable) -> bool:
        """Whether ``alloc_id`` currently owns processors."""
        return alloc_id in self._allocations

    def allocation_of(self, alloc_id: Hashable) -> int:
        """Processor count owned by ``alloc_id`` (0 when absent)."""
        return self._allocations.get(alloc_id, 0)

    def live_allocations(self) -> Dict[Hashable, int]:
        """Snapshot of live allocations (id -> processors)."""
        return dict(self._allocations)

    def fits(self, num: int) -> bool:
        """Whether a request of ``num`` processors fits right now."""
        return 0 < num <= self.free

    def validate_request(self, num: int) -> None:
        """Raise :class:`AllocationError` when ``num`` is malformed.

        A request is malformed if it is non-positive, exceeds the
        machine, or is not a multiple of the granularity.  Malformed
        requests can never be satisfied at any time, so workloads are
        validated eagerly at load time.
        """
        if num <= 0:
            raise AllocationError(f"request must be positive, got {num}")
        if num > self.total:
            raise AllocationError(f"request {num} exceeds machine size {self.total}")
        if num % self.granularity != 0:
            raise AllocationError(
                f"request {num} violates allocation granularity {self.granularity}"
            )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def allocate(self, alloc_id: Hashable, num: int, time: float = 0.0) -> None:
        """Allocate ``num`` processors to ``alloc_id`` at ``time``.

        Raises:
            AllocationError: on malformed requests, duplicate ids, or
                insufficient free capacity.
        """
        self.validate_request(num)
        if alloc_id in self._allocations:
            raise AllocationError(f"allocation id {alloc_id!r} is already live")
        if num > self.free:
            raise AllocationError(
                f"cannot allocate {num} processors; only {self.free} free of {self.total}"
                + (f" ({self.offline} offline)" if self._offline else "")
            )
        self._allocations[alloc_id] = num
        self._used += num
        if self.track_placement:
            self._unit_of[alloc_id] = self._claim(alloc_id, num // self.granularity)
        if self.tracker is not None:
            self.tracker.observe(time, self._used)

    def resize(self, alloc_id: Hashable, new_num: int, time: float = 0.0) -> int:
        """Resize a live allocation in place; returns its previous size.

        The malleability primitive (docs/malleability.md): a running
        job shrinks or grows without releasing its allocation id.
        Shrinking frees the highest-indexed psets of the allocation
        (placement tracking); growing claims free online psets
        first-fit, like :meth:`allocate`.

        Raises:
            AllocationError: when ``alloc_id`` is not live, ``new_num``
                is malformed, or growth exceeds the free capacity.
        """
        self.validate_request(new_num)
        old_num = self._allocations.get(alloc_id)
        if old_num is None:
            raise AllocationError(f"allocation id {alloc_id!r} is not live")
        delta = new_num - old_num
        if delta == 0:
            return old_num
        if delta > self.free:
            raise AllocationError(
                f"cannot grow {alloc_id!r} by {delta} processors; "
                f"only {self.free} free of {self.total}"
                + (f" ({self.offline} offline)" if self._offline else "")
            )
        self._allocations[alloc_id] = new_num
        self._used += delta
        if self.track_placement:
            if delta > 0:
                self._unit_of[alloc_id] += self._claim(alloc_id, delta // self.granularity)
            else:
                drop = (-delta) // self.granularity
                units = self._unit_of[alloc_id]
                for index in units[len(units) - drop:]:
                    self._unit_owner[index] = None
                del units[len(units) - drop:]
        if self.tracker is not None:
            self.tracker.observe(time, self._used)
        return old_num

    def release(self, alloc_id: Hashable, time: float = 0.0) -> int:
        """Release the allocation held by ``alloc_id``; returns its size.

        Raises:
            AllocationError: when ``alloc_id`` holds no allocation.
        """
        try:
            num = self._allocations.pop(alloc_id)
        except KeyError:
            raise AllocationError(f"allocation id {alloc_id!r} is not live") from None
        self._used -= num
        if self.track_placement:
            for index in self._unit_of.pop(alloc_id, ()):
                self._unit_owner[index] = None
        if self.tracker is not None:
            self.tracker.observe(time, self._used)
        return num

    # ------------------------------------------------------------------
    # Faults (placement tracking required)
    # ------------------------------------------------------------------
    def _claim(self, alloc_id: Hashable, n_units: int) -> List[int]:
        """Give ``alloc_id`` the ``n_units`` lowest-indexed free online
        psets (first-fit); returns their indices."""
        chosen: List[int] = []
        for index, owner in enumerate(self._unit_owner):
            if owner is None and index not in self._offline:
                chosen.append(index)
                if len(chosen) == n_units:
                    break
        # free-capacity check already passed, so enough psets exist
        assert len(chosen) == n_units, (alloc_id, n_units, chosen)
        for index in chosen:
            self._unit_owner[index] = alloc_id
        return chosen

    def _require_placement(self) -> None:
        if not self.track_placement:
            raise AllocationError(
                "pset faults need Machine(track_placement=True)"
            )

    def online_units(self) -> List[int]:
        """Indices of psets currently online (sorted)."""
        self._require_placement()
        return [i for i in range(self.units) if i not in self._offline]

    def fail_unit(self, index: int, time: float = 0.0) -> Optional[Hashable]:
        """Take pset ``index`` offline; evict and return its owner.

        The owning allocation (if any) is released *in full* — a job
        cannot keep running on a partially failed allocation — and its
        id is returned so the caller can requeue or fail the job.
        Capacity shrinks by one granularity unit until
        :meth:`repair_unit`.

        Raises:
            AllocationError: placement untracked, index out of range,
                or pset already offline.
        """
        self._require_placement()
        if not 0 <= index < self.units:
            raise AllocationError(f"pset index {index} out of range 0..{self.units - 1}")
        if index in self._offline:
            raise AllocationError(f"pset {index} is already offline")
        evicted = self._unit_owner[index]
        if evicted is not None:
            self.release(evicted, time=time)
        if not self._offline:
            self._degraded_since = time
        self._fault_time = time
        self._offline.add(index)
        self._offline_procs += self.granularity
        return evicted

    def repair_unit(self, index: int, time: float = 0.0) -> None:
        """Bring pset ``index`` back online.

        Raises:
            AllocationError: when the pset is not offline.
        """
        self._require_placement()
        if index not in self._offline:
            raise AllocationError(f"pset {index} is not offline")
        self._offline.remove(index)
        self._offline_procs -= self.granularity
        self._fault_time = time
        if not self._offline:
            assert self._degraded_since is not None
            self._degraded_accum += max(0.0, time - self._degraded_since)
            self._degraded_since = None

    def degraded_time(self, until: float) -> float:
        """Total seconds with >= 1 pset offline, up to ``until``.

        Raises:
            ValueError: when ``until`` precedes the last pset failure
                or repair (outages before it are not kept apart).
        """
        if until < self._fault_time:
            raise ValueError(
                f"degraded_time horizon {until} precedes the last pset "
                f"failure/repair at {self._fault_time}"
            )
        extra = 0.0
        if self._degraded_since is not None and until > self._degraded_since:
            extra = until - self._degraded_since
        return self._degraded_accum + extra

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        assert 0 <= self._used <= self.available <= self.total, (
            self._used,
            self.offline,
            self.total,
        )
        assert self._offline_procs == len(self._offline) * self.granularity, (
            self._offline_procs,
            self._offline,
        )
        assert self._used == sum(self._allocations.values())
        for alloc_id, num in self._allocations.items():
            assert num > 0 and num % self.granularity == 0, (alloc_id, num)
        if self.track_placement:
            owned = {
                alloc_id: len(units) * self.granularity
                for alloc_id, units in self._unit_of.items()
            }
            assert owned == dict(self._allocations), (owned, self._allocations)
            for alloc_id, units in self._unit_of.items():
                for index in units:
                    assert self._unit_owner[index] == alloc_id, (alloc_id, index)
                    assert index not in self._offline, (alloc_id, index)
            n_owned = sum(1 for owner in self._unit_owner if owner is not None)
            assert n_owned * self.granularity == self._used, (n_owned, self._used)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        degraded = f", offline={self.offline}" if self._offline else ""
        return (
            f"Machine(total={self.total}, granularity={self.granularity}, "
            f"used={self._used}, live={len(self._allocations)}{degraded})"
        )


__all__ = ["AllocationError", "Machine"]
