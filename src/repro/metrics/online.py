"""O(1)-memory online aggregation of the paper's SV metrics.

At archive scale (100k–1M jobs) retaining a :class:`JobRecord` per
completion dominates memory.  :class:`OnlineAggregator` consumes
completion records one at a time and keeps only scalars: running sums
for every mean the paper reports, a P² estimator for the p95 waiting
time, and per-class (batch/dedicated) breakdowns.

Two accuracy regimes, both load-bearing for the test-suite:

- **Means are exact.**  Sums accumulate in completion order — the same
  order and the same left-to-right float additions
  :class:`~repro.metrics.records.RunMetrics` performs over its record
  list — so ``mean_wait``/``mean_runtime``/``mean_response``/
  ``mean_bounded_slowdown`` (and the derived ratio-of-means slowdown)
  are *bitwise identical* to the exact per-record path, not merely
  close.  The cross-validation tolerance of 1e-9 is therefore slack,
  not a requirement.
- **Quantiles are estimates.**  The p95 wait uses the Jain & Chlamtac
  P² algorithm (five markers, O(1) memory, no samples retained).  It
  is exact up to five observations and approximate beyond; the
  documented tolerance is :data:`P2_REL_TOLERANCE` relative error
  against the same-definition exact quantile on well-behaved (unimodal,
  finite-variance) wait distributions, which the property tests
  enforce across seeds.  Adversarial distributions can exceed it —
  anything needing certified quantiles must replay records or traces.

The exact per-record path stays the oracle: runs that retain records
keep building ``RunMetrics.records``, and :func:`cross_validate_online` mirrors
:func:`repro.obs.analytics.cross_validate` so CI can assert the two
pipelines agree on every run (docs/scaling.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.metrics.records import JobRecord, RunMetrics
from repro.metrics.stats import paper_slowdown
from repro.workload.job import JobKind

#: Documented relative tolerance of the P² p95 estimate vs the exact
#: quantile (same interpolation definition) on well-behaved wait
#: distributions.  Enforced by tests/metrics/test_online.py.
P2_REL_TOLERANCE = 0.15

#: Feitelson bounded-slowdown threshold (seconds) — must match
#: :func:`repro.metrics.stats.bounded_slowdown`.
_BSLD_THRESHOLD = 10.0


def exact_quantile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation quantile (numpy's default definition).

    The same definition :class:`P2Quantile` converges to; used by the
    oracle side of the quantile cross-validation tests.  Returns 0.0
    for an empty sequence.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {p}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = p * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Five markers track the minimum, the p/2, p and (1+p)/2 quantiles
    and the maximum; marker heights move by parabolic (falling back to
    linear) interpolation as observations arrive.  Memory is O(1) and
    each observation costs O(1).

    Exact while fewer than five observations have been seen (the
    estimate then interpolates the sorted sample directly).
    """

    __slots__ = ("p", "count", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._rates = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    # ------------------------------------------------------------------
    def observe(self, x: float) -> None:
        """Fold one observation into the estimate."""
        self.count += 1
        heights = self._heights
        if self.count <= 5:
            heights.append(float(x))
            if self.count == 5:
                heights.sort()
            return

        positions = self._positions
        # Locate the marker cell containing x, adjusting extremes.
        if x < heights[0]:
            heights[0] = float(x)
            cell = 0
        elif x >= heights[4]:
            heights[4] = float(x)
            cell = 3
        else:
            cell = 0
            while x >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        desired = self._desired
        for index, rate in enumerate(self._rates):
            desired[index] += rate

        # Nudge the three interior markers toward their desired
        # positions, moving heights by the P² parabolic formula and
        # falling back to linear when the parabola would de-sort them.
        for i in (1, 2, 3):
            delta = desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        heights, positions = self._heights, self._positions
        return heights[i] + step / (positions[i + 1] - positions[i - 1]) * (
            (positions[i] - positions[i - 1] + step)
            * (heights[i + 1] - heights[i])
            / (positions[i + 1] - positions[i])
            + (positions[i + 1] - positions[i] - step)
            * (heights[i] - heights[i - 1])
            / (positions[i] - positions[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        heights, positions = self._heights, self._positions
        j = i + int(step)
        return heights[i] + step * (heights[j] - heights[i]) / (
            positions[j] - positions[i]
        )

    # ------------------------------------------------------------------
    def value(self) -> float:
        """Current quantile estimate (0.0 before any observation)."""
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            return exact_quantile(self._heights, self.p)
        return self._heights[2]


@dataclass(frozen=True)
class ClassSummary:
    """Per-:class:`~repro.workload.job.JobKind` completion breakdown."""

    n_jobs: int
    mean_wait: float
    mean_runtime: float

    def as_row(self) -> Dict[str, float]:
        """Flat dict for tabular reports."""
        return {
            "n_jobs": float(self.n_jobs),
            "mean_wait": self.mean_wait,
            "mean_runtime": self.mean_runtime,
        }


@dataclass(frozen=True)
class OnlineSummary:
    """End-of-run view of an :class:`OnlineAggregator`.

    The scalar aggregates a streaming run reports instead of (or
    alongside) the per-record :class:`~repro.metrics.records.RunMetrics`
    list.  ``utilization``/``makespan`` are stamped by the runner from
    its (already O(1)) utilization tracker.
    """

    n_jobs: int
    mean_wait: float
    mean_runtime: float
    mean_response: float
    slowdown: float
    mean_bounded_slowdown: float
    mean_per_job_slowdown: float
    p95_wait: float
    utilization: float
    makespan: float
    mean_dedicated_delay: float
    dedicated_on_time_rate: float
    by_class: Dict[str, ClassSummary] = field(default_factory=dict)

    def as_row(self) -> Dict[str, float]:
        """Flat dict for tabular reports."""
        return {
            "n_jobs": float(self.n_jobs),
            "mean_wait": self.mean_wait,
            "mean_runtime": self.mean_runtime,
            "mean_response": self.mean_response,
            "slowdown": self.slowdown,
            "mean_bounded_slowdown": self.mean_bounded_slowdown,
            "p95_wait": self.p95_wait,
            "utilization": self.utilization,
            "makespan": self.makespan,
        }


class _ClassAccumulator:
    __slots__ = ("count", "wait_sum", "runtime_sum")

    def __init__(self) -> None:
        self.count = 0
        self.wait_sum = 0.0
        self.runtime_sum = 0.0


class OnlineAggregator:
    """Streaming accumulator of the paper's SV metrics, O(1) memory.

    Feed completion records in completion order with :meth:`observe`;
    read back with :meth:`summary`.  See the module docstring for the
    exact-vs-estimated contract.
    """

    __slots__ = (
        "count",
        "_wait_sum",
        "_runtime_sum",
        "_response_sum",
        "_bsld_sum",
        "_pjsd_sum",
        "_p95_wait",
        "_by_kind",
        "_dedicated_delay_sum",
        "_dedicated_on_time",
    )

    def __init__(self) -> None:
        self.count = 0
        self._wait_sum = 0.0
        self._runtime_sum = 0.0
        self._response_sum = 0.0
        self._bsld_sum = 0.0
        self._pjsd_sum = 0.0
        self._p95_wait = P2Quantile(0.95)
        self._by_kind: Dict[JobKind, _ClassAccumulator] = {}
        self._dedicated_delay_sum = 0.0
        self._dedicated_on_time = 0

    # ------------------------------------------------------------------
    def observe(self, record: JobRecord) -> None:
        """Fold one completion record into every aggregate."""
        wait = record.wait
        runtime = record.runtime
        self.count += 1
        self._wait_sum += wait
        self._runtime_sum += runtime
        self._response_sum += wait + runtime
        # Same per-job terms as repro.metrics.stats.bounded_slowdown /
        # per_job_slowdowns, accumulated instead of listed.
        response = wait + runtime
        bsld = response / (runtime if runtime > _BSLD_THRESHOLD else _BSLD_THRESHOLD)
        self._bsld_sum += bsld if bsld > 1.0 else 1.0
        self._pjsd_sum += response / (runtime if runtime > 1.0 else 1.0)
        self._p95_wait.observe(wait)
        acc = self._by_kind.get(record.kind)
        if acc is None:
            acc = self._by_kind[record.kind] = _ClassAccumulator()
        acc.count += 1
        acc.wait_sum += wait
        acc.runtime_sum += runtime
        if record.kind is JobKind.DEDICATED:
            delay = record.dedicated_delay or 0.0
            self._dedicated_delay_sum += delay
            if delay == 0.0:
                self._dedicated_on_time += 1

    def observe_all(self, records: Iterable[JobRecord]) -> None:
        """Fold an iterable of records (tests / oracle replays)."""
        for record in records:
            self.observe(record)

    # ------------------------------------------------------------------
    @property
    def mean_wait(self) -> float:
        """Running mean waiting time (exact)."""
        return self._wait_sum / self.count if self.count else 0.0

    @property
    def mean_runtime(self) -> float:
        """Running mean realized runtime (exact)."""
        return self._runtime_sum / self.count if self.count else 0.0

    @property
    def p95_wait(self) -> float:
        """P² estimate of the 95th-percentile wait."""
        return self._p95_wait.value()

    def summary(self, *, utilization: float = 0.0, makespan: float = 0.0) -> OnlineSummary:
        """Freeze the aggregates (runner supplies the tracker scalars)."""
        n = self.count
        dedicated = self._by_kind.get(JobKind.DEDICATED)
        n_dedicated = dedicated.count if dedicated is not None else 0
        return OnlineSummary(
            n_jobs=n,
            mean_wait=self.mean_wait,
            mean_runtime=self.mean_runtime,
            mean_response=self._response_sum / n if n else 0.0,
            slowdown=paper_slowdown(self.mean_wait, self.mean_runtime),
            mean_bounded_slowdown=self._bsld_sum / n if n else 0.0,
            mean_per_job_slowdown=self._pjsd_sum / n if n else 0.0,
            p95_wait=self.p95_wait,
            utilization=utilization,
            makespan=makespan,
            mean_dedicated_delay=(
                self._dedicated_delay_sum / n_dedicated if n_dedicated else 0.0
            ),
            dedicated_on_time_rate=(
                self._dedicated_on_time / n_dedicated if n_dedicated else 1.0
            ),
            by_class={
                kind.value: ClassSummary(
                    n_jobs=acc.count,
                    mean_wait=acc.wait_sum / acc.count,
                    mean_runtime=acc.runtime_sum / acc.count,
                )
                for kind, acc in self._by_kind.items()
            },
        )


# ----------------------------------------------------------------------
# Cross-validation against the exact per-record oracle
# ----------------------------------------------------------------------
#: (OnlineSummary attribute, RunMetrics attribute) pairs compared by
#: :func:`cross_validate_online` — the streaming analogue of
#: :data:`repro.obs.analytics.ORACLE_METRICS`.
ONLINE_ORACLE_METRICS = (
    ("mean_wait", "mean_wait"),
    ("mean_runtime", "mean_runtime"),
    ("mean_response", "mean_response"),
    ("slowdown", "slowdown"),
    ("mean_bounded_slowdown", "mean_bounded_slowdown"),
    ("mean_per_job_slowdown", "mean_per_job_slowdown"),
    ("utilization", "utilization"),
    ("makespan", "makespan"),
)


def cross_validate_online(
    summary: OnlineSummary,
    metrics: RunMetrics,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> List[str]:
    """Compare online aggregates against exact-record ``RunMetrics``.

    Mirrors :func:`repro.obs.analytics.cross_validate`: returns
    human-readable mismatch findings (empty = the two pipelines agree).
    The job count is compared exactly; float metrics with
    ``math.isclose``.  The P² p95 is *not* compared here — it has its
    own documented tolerance (:data:`P2_REL_TOLERANCE`) and oracle.
    """
    findings: List[str] = []
    if summary.n_jobs != metrics.n_jobs:
        findings.append(
            f"n_jobs: online saw {summary.n_jobs} completions, "
            f"RunMetrics has {metrics.n_jobs}"
        )
    for online_name, run_name in ONLINE_ORACLE_METRICS:
        ours = getattr(summary, online_name)
        theirs = getattr(metrics, run_name)
        if not math.isclose(ours, theirs, rel_tol=rel_tol, abs_tol=abs_tol):
            findings.append(
                f"{online_name}: online computes {ours!r}, "
                f"RunMetrics reports {theirs!r} "
                f"(delta {abs(ours - theirs):.3e})"
            )
    return findings


def assert_online_consistent(
    summary: OnlineSummary,
    metrics: RunMetrics,
    *,
    rel_tol: float = 1e-9,
    context: str = "",
) -> None:
    """Hard-error form of :func:`cross_validate_online`.

    Raises:
        ValueError: when any compared metric disagrees; the message
            lists every mismatch.
    """
    findings = cross_validate_online(summary, metrics, rel_tol=rel_tol)
    if findings:
        where = f" [{context}]" if context else ""
        raise ValueError(
            f"online metrics disagree with exact RunMetrics{where}:\n  "
            + "\n  ".join(findings)
        )


__all__ = [
    "ClassSummary",
    "OnlineAggregator",
    "OnlineSummary",
    "ONLINE_ORACLE_METRICS",
    "P2Quantile",
    "P2_REL_TOLERANCE",
    "assert_online_consistent",
    "cross_validate_online",
    "exact_quantile",
]
