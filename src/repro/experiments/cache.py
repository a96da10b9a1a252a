"""Content-addressed cache of simulation runs.

A simulation is a pure function of its inputs: the workload content
(jobs, ECCs, machine), the scheduler (name + knobs) and the package
version.  :class:`RunCache` keys a :class:`~repro.metrics.records.RunMetrics`
on a SHA-256 digest of exactly those inputs and persists it under
``.repro_cache/``, so re-running a figure with one changed algorithm
only simulates the delta and a full re-run of an unchanged benchmark
is pure cache reads.

Invalidation is automatic by construction: any change to the workload
draw, a scheduler knob, or the package version changes the digest and
misses.  Stale entries are never wrong, only unused; ``clear()`` (or
``rm -rf .repro_cache``) reclaims the space.

The cache is disabled by default so unit tests and ad-hoc runs stay
side-effect free; opt in with ``REPRO_CACHE=1`` (directory override:
``REPRO_CACHE_DIR``) or by passing an explicit :class:`RunCache`.
Entries are checksummed containers (:mod:`repro.durable.atomic`)
written atomically (temp file + fsync + rename), so concurrent writers
— the parallel executor's workers — cannot corrupt each other and a
torn or bit-rotted entry is detected on read and treated as a miss
with a warning, never a crash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.durable.atomic import checksummed_read, checksummed_write
from repro.metrics.records import RunMetrics
from repro.workload.generator import Workload

#: Schema tag of on-disk cache entries; readers reject others.
CACHE_MAGIC = "repro.cache-entry/1"

#: Environment switch: ``REPRO_CACHE=1`` enables the on-disk cache.
ENV_CACHE = "REPRO_CACHE"
#: Environment override for the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
#: Default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

_TRUTHY = {"1", "true", "yes", "on"}


def workload_digest(workload: Workload) -> str:
    """Stable hex digest of a workload's simulation-relevant content.

    Covers every field a run's outcome can depend on — job attributes,
    ECC commands, machine size and granularity — and deliberately skips
    the cosmetic ``description``.  Two workloads with identical content
    therefore share cache entries regardless of how they were produced.
    """
    hasher = hashlib.sha256()
    hasher.update(f"M={workload.machine_size};g={workload.granularity}".encode())
    for job in workload.jobs:
        hasher.update(
            repr(
                (
                    job.job_id,
                    job.submit,
                    job.num,
                    job.original_estimate,
                    job.actual,
                    job.kind.value,
                    job.requested_start,
                    job.cancel_at,
                )
            ).encode()
        )
        if job.is_malleable:
            # Appended only for malleable jobs so every pre-existing
            # (all-rigid) workload keeps its digest — and its cache
            # entries — byte-for-byte.
            hasher.update(
                repr((job.min_procs, job.pref_procs, job.max_procs)).encode()
            )
    for ecc in workload.eccs:
        hasher.update(
            repr((ecc.job_id, ecc.issue_time, ecc.kind.value, ecc.amount)).encode()
        )
    return hasher.hexdigest()


def run_key(
    workload: Workload, algorithm: str, *, version: Optional[str] = None, **knobs: object
) -> str:
    """Digest identifying one (workload, scheduler, version) run.

    The key of ``RunSpec(workload, algorithm, **knobs)``
    (:func:`repro.experiments.parallel.spec_key`, which reads which
    fields enter it off the spec's declaration).
    """
    from repro.experiments.parallel import RunSpec, spec_key

    return spec_key(RunSpec(workload, algorithm, **knobs), version=version)


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`RunCache` instance.

    >>> stats = CacheStats(hits=3, misses=1, stores=1)
    >>> stats.lookups, round(stats.hit_rate, 2)
    (4, 0.75)
    >>> print(stats)
    cache: 3 hits, 1 misses (75% hit rate), 1 stores
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls that reached an enabled cache."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when none)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        rate = f" ({self.hit_rate:.0%} hit rate)" if self.lookups else ""
        return (
            f"cache: {self.hits} hits, {self.misses} misses{rate}, "
            f"{self.stores} stores"
        )


@dataclass
class RunCache:
    """Pickle-backed run cache keyed by :func:`run_key` digests.

    Attributes:
        root: Cache directory (created lazily on first store).
        enabled: When False, every lookup misses and stores are no-ops;
            the executor then behaves exactly as if no cache existed.
    """

    root: Union[str, Path] = DEFAULT_CACHE_DIR
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "RunCache":
        """Cache configured from ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``."""
        enabled = os.environ.get(ENV_CACHE, "").strip().lower() in _TRUTHY
        root = os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
        return cls(root=root, enabled=enabled)

    @classmethod
    def disabled(cls) -> "RunCache":
        """A cache that never hits and never writes."""
        return cls(enabled=False)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directory listings manageable for
        # large sweeps (a full grid easily stores thousands of runs).
        return Path(self.root) / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[RunMetrics]:
        """Cached metrics for ``key``, or None on a miss.

        A corrupt or unreadable entry (killed writer, bit rot, version
        skew in pickled classes) is treated as a miss — with a
        ``RuntimeWarning`` naming the file — never an error.
        """
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            _header, payload = checksummed_read(path, magic=CACHE_MAGIC)
            metrics = pickle.loads(payload)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Checksum/magic mismatches are CorruptFileError; unpickling
            # arbitrary corruption can raise nearly anything beyond that
            # (UnpicklingError, EOFError, ValueError from bad opcodes,
            # AttributeError/ImportError from version skew, OSError...).
            warnings.warn(
                f"{path}: discarding unreadable cache entry (treated as a miss)",
                RuntimeWarning,
                stacklevel=2,
            )
            self.stats.misses += 1
            return None
        if not isinstance(metrics, RunMetrics):
            self.stats.misses += 1
            return None
        # Schema check: an entry pickled by an older RunMetrics (its
        # __dict__ simply lacks fields added since) must be a miss, not
        # a half-initialized object crashing a report downstream.  The
        # instance dict is checked, not hasattr: class-level dataclass
        # defaults would mask a missing field.
        state = getattr(metrics, "__dict__", {})
        if any(f.name not in state for f in dataclasses.fields(RunMetrics)):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return metrics

    def put(self, key: str, metrics: RunMetrics) -> None:
        """Persist ``metrics`` under ``key`` (atomic, last writer wins)."""
        if not self.enabled:
            return
        checksummed_write(
            self._path(key),
            pickle.dumps(metrics, protocol=pickle.HIGHEST_PROTOCOL),
            magic=CACHE_MAGIC,
        )
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        root = Path(self.root)
        if not root.is_dir():
            return 0
        removed = 0
        for entry in root.glob("*/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        root = Path(self.root)
        if not root.is_dir():
            return 0
        return sum(1 for _ in root.glob("*/*.pkl"))


__all__ = [
    "CACHE_MAGIC",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE",
    "ENV_CACHE_DIR",
    "RunCache",
    "run_key",
    "workload_digest",
]
