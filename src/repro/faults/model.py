"""Fault and retry configuration (docs/resilience.md).

Two frozen dataclasses describe *what goes wrong* and *how the system
responds*:

- :class:`FaultConfig` — the disruption model: an MTBF/MTTR-driven
  pset failure-and-repair process, a per-attempt job failure
  probability, and an explicit poison-job list (jobs that fail on
  every attempt, the classic crash-loop).
- :class:`RetryPolicy` — requeue-and-retry semantics: retry budget,
  exponential resubmission backoff, and an optional checkpoint model
  that preserves completed work across restarts of elastic jobs.

Both are hashable value objects so they can participate in the
experiment cache key (:func:`repro.experiments.cache.run_key`).

The CLI encodes a fault model as a compact ``key=value`` spec::

    --faults mtbf=86400,mttr=3600,seed=7,pfail=0.02,poison=3|9

parsed by :func:`parse_faults_spec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic, seeded fault model for one simulation run.

    Attributes:
        mtbf: Mean time between pset failures in seconds (exponential
            inter-failure times).  ``0`` disables node failures.
        mttr: Mean time to repair a failed pset in seconds
            (exponential repair times).  Must be positive when node
            failures are enabled.
        seed: Root seed of every fault random stream.  Two runs with
            identical workload, scheduler and ``FaultConfig`` produce
            byte-identical metrics.
        p_job_fail: Probability that any given *attempt* of a job
            crashes mid-run (uniform over the attempt's runtime).
        poison_jobs: Job ids that crash on **every** attempt,
            regardless of ``p_job_fail`` — they exercise the retry
            exhaustion path deterministically.
    """

    mtbf: float = 0.0
    mttr: float = 3600.0
    seed: int = 0
    p_job_fail: float = 0.0
    poison_jobs: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0 <= self.mtbf < math.inf:
            raise ValueError(f"mtbf must be finite and >= 0, got {self.mtbf}")
        if not math.isfinite(self.mttr):
            raise ValueError(f"mttr must be finite, got {self.mttr}")
        if self.mtbf > 0 and self.mttr <= 0:
            raise ValueError(f"mttr must be positive, got {self.mttr}")
        if not 0.0 <= self.p_job_fail <= 1.0:
            raise ValueError(f"p_job_fail must be in [0, 1], got {self.p_job_fail}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # normalize: sorted unique tuple so equal configs hash equally
        object.__setattr__(
            self, "poison_jobs", tuple(sorted(set(int(j) for j in self.poison_jobs)))
        )

    @property
    def node_faults_enabled(self) -> bool:
        """Whether the pset failure/repair process is active."""
        return self.mtbf > 0

    @property
    def job_faults_enabled(self) -> bool:
        """Whether any job-level failures can occur."""
        return self.p_job_fail > 0 or bool(self.poison_jobs)

    @property
    def enabled(self) -> bool:
        """Whether this config injects any faults at all."""
        return self.node_faults_enabled or self.job_faults_enabled


@dataclass(frozen=True)
class RetryPolicy:
    """How failed or evicted jobs are resubmitted.

    Attributes:
        max_retries: Requeue budget per job.  A job that fails more
            than ``max_retries`` times is marked
            :attr:`~repro.workload.job.JobState.FAILED` permanently and
            recorded in :class:`~repro.metrics.records.FailureRecord`.
        backoff: Delay (seconds) before the first resubmission; ``0``
            requeues at the failure instant.
        backoff_factor: Multiplier applied per extra attempt — the
            ``k``-th requeue waits ``backoff * backoff_factor**(k-1)``.
        checkpoint: Preserve completed work across restarts.  Elastic
            (-E) schedulers apply the credit through the ECC machinery
            as a synthetic RT command shrinking the remaining runtime;
            without checkpointing every restart runs from scratch and
            the lost work is charged to
            :attr:`~repro.metrics.records.RunMetrics.lost_work`.
    """

    max_retries: int = 3
    backoff: float = 0.0
    backoff_factor: float = 2.0
    checkpoint: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 <= self.backoff < math.inf:
            raise ValueError(f"backoff must be finite and >= 0, got {self.backoff}")
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ValueError(
                f"backoff_factor must be finite and >= 1, got {self.backoff_factor}"
            )
        if self.backoff and self.max_retries:
            # The last requeue waits longest; its delay must be a time.
            try:
                largest = self.backoff * self.backoff_factor ** (self.max_retries - 1)
            except OverflowError:
                largest = math.inf
            if not math.isfinite(largest):
                raise ValueError(
                    f"backoff {self.backoff} x {self.backoff_factor}**"
                    f"{self.max_retries - 1} (the delay before requeue "
                    f"{self.max_retries}) must be finite"
                )

    def delay(self, attempt: int) -> float:
        """Resubmission delay after failure number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if not self.backoff:
            # No power to take: a large budget cannot overflow it.
            return 0.0
        return self.backoff * self.backoff_factor ** (attempt - 1)


# ----------------------------------------------------------------------
# CLI spec parsing
# ----------------------------------------------------------------------
_SPEC_KEYS = ("mtbf", "mttr", "seed", "pfail", "poison")


def parse_faults_spec(spec: str) -> FaultConfig:
    """Parse a CLI fault spec like ``mtbf=86400,mttr=3600,seed=7``.

    Recognized keys: ``mtbf``, ``mttr``, ``seed``, ``pfail``
    (maps to :attr:`FaultConfig.p_job_fail`) and ``poison`` (job ids
    joined by ``|``, e.g. ``poison=3|9``).  Unknown keys, malformed
    numbers and duplicate keys raise :class:`ValueError` with the
    offending fragment named.
    """
    kwargs: dict = {}
    seen = set()
    for raw in spec.split(","):
        fragment = raw.strip()
        if not fragment:
            continue
        key, sep, value = fragment.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not value:
            raise ValueError(f"faults spec: expected key=value, got {fragment!r}")
        if key not in _SPEC_KEYS:
            raise ValueError(
                f"faults spec: unknown key {key!r} (expected one of {_SPEC_KEYS})"
            )
        if key in seen:
            raise ValueError(f"faults spec: duplicate key {key!r}")
        seen.add(key)
        try:
            if key == "mtbf":
                kwargs["mtbf"] = float(value)
            elif key == "mttr":
                kwargs["mttr"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "pfail":
                kwargs["p_job_fail"] = float(value)
            elif key == "poison":
                kwargs["poison_jobs"] = tuple(
                    int(part) for part in value.split("|") if part
                )
        except ValueError as exc:
            raise ValueError(f"faults spec: bad value in {fragment!r}: {exc}") from None
    return FaultConfig(**kwargs)


def format_faults_spec(config: FaultConfig) -> str:
    """Inverse of :func:`parse_faults_spec` (canonical key order)."""
    parts = [f"mtbf={config.mtbf:g}"]
    if config.node_faults_enabled:
        parts.append(f"mttr={config.mttr:g}")
    parts.append(f"seed={config.seed}")
    if config.p_job_fail:
        parts.append(f"pfail={config.p_job_fail:g}")
    if config.poison_jobs:
        parts.append("poison=" + "|".join(str(j) for j in config.poison_jobs))
    return ",".join(parts)


__all__ = ["FaultConfig", "RetryPolicy", "format_faults_spec", "parse_faults_spec"]
