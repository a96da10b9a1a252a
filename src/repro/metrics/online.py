"""The one fold of the paper's §V completion metrics, in O(1) memory.

:class:`OnlineAggregator` consumes completion records one at a time,
in completion order, and keeps only scalars: running sums for every
mean the paper reports (wait, runtime, response, bounded and per-job
slowdown) and the dedicated-job delay and on-time counts.  It is the
only place that arithmetic lives:

- the runner feeds every completion to one aggregator at its finish
  event, and :class:`~repro.metrics.records.RunMetrics` stores
  :meth:`OnlineAggregator.stats`, so reading a mean is O(1) whether or
  not the run kept its records;
- :meth:`RunMetrics.from_records
  <repro.metrics.records.RunMetrics.from_records>` folds a hand-built
  record list through the same class;
- the trace oracle (:func:`repro.obs.analytics.recompute_metrics`)
  folds the completions it rebuilds from a trace, so it compares
  completion streams, not two implementations of the means.

Every sum is an explicit ``+=`` in completion order, so equal
completion streams give bit-equal means.

With ``p95=True`` the aggregator also runs the Jain & Chlamtac P²
estimator of the p95 wait, for the O(1)-memory :class:`OnlineSummary`
a run with ``online=True`` attaches as ``metrics.online``.  Quantiles
are estimates: five markers, no samples retained, exact up to five
observations and approximate beyond.  The documented tolerance is
:data:`P2_REL_TOLERANCE` relative error against the same-definition
exact quantile on well-behaved (unimodal, finite-variance) wait
distributions, which the property tests enforce across seeds.
Adversarial distributions can exceed it — anything needing certified
quantiles must replay records or traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.metrics.stats import paper_slowdown
from repro.workload.job import JobKind

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.metrics.records import JobRecord

#: Documented relative tolerance of the P² p95 estimate vs the exact
#: quantile (same interpolation definition) on well-behaved wait
#: distributions.  Enforced by tests/metrics/test_online.py.
P2_REL_TOLERANCE = 0.15

#: Feitelson bounded-slowdown threshold (seconds): a job's bounded
#: slowdown is ``max(1, response / max(runtime, BSLD_THRESHOLD))``.
BSLD_THRESHOLD = 10.0


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
class OnlineSummary:
    """End-of-run view of an :class:`OnlineAggregator` run with ``p95=True``.

    :meth:`OnlineAggregator.stats` plus the ratio-of-means slowdown and
    the P² p95 wait; ``utilization``/``makespan`` are stamped by the
    runner from its (already O(1)) utilization tracker.
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


class OnlineAggregator:
    """Streaming fold of the paper's §V completion metrics, O(1) memory.

    Feed completions in completion order with :meth:`observe` (or
    :meth:`add`, from a completion's columns); read the results with
    :meth:`stats`, or :meth:`summary` when built with ``p95=True``.
    See the module docstring for the exact-vs-estimated contract.
    """

    __slots__ = (
        "count",
        "_wait_sum",
        "_runtime_sum",
        "_response_sum",
        "_bsld_sum",
        "_pjsd_sum",
        "_dedicated_count",
        "_dedicated_delay_sum",
        "_dedicated_on_time",
        "_p95_wait",
    )

    def __init__(self, *, p95: bool = False) -> None:
        self.count = 0
        self._wait_sum = 0.0
        self._runtime_sum = 0.0
        self._response_sum = 0.0
        self._bsld_sum = 0.0
        self._pjsd_sum = 0.0
        self._dedicated_count = 0
        self._dedicated_delay_sum = 0.0
        self._dedicated_on_time = 0
        self._p95_wait: Optional[P2Quantile] = P2Quantile(0.95) if p95 else None

    # ------------------------------------------------------------------
    def observe(self, record: "JobRecord") -> None:
        """Fold one completion record into every aggregate."""
        self.add(record.kind, record.submit, record.start, record.finish,
                 record.requested_start)

    def add(self, kind: JobKind, submit: float, start: float, finish: float,
            requested_start: Optional[float]) -> None:
        """Fold one completion given as the record fields the metrics read."""
        wait = start - submit
        runtime = finish - start
        response = wait + runtime
        self.count += 1
        self._wait_sum += wait
        self._runtime_sum += runtime
        self._response_sum += response
        bsld = response / (runtime if runtime > BSLD_THRESHOLD else BSLD_THRESHOLD)
        self._bsld_sum += bsld if bsld > 1.0 else 1.0
        self._pjsd_sum += response / (runtime if runtime > 1.0 else 1.0)
        if self._p95_wait is not None:
            self._p95_wait.observe(wait)
        if kind is JobKind.DEDICATED:
            delay = 0.0 if requested_start is None else max(0.0, start - requested_start)
            self._dedicated_count += 1
            self._dedicated_delay_sum += delay
            if delay == 0.0:
                self._dedicated_on_time += 1

    def observe_all(self, records: Iterable["JobRecord"]) -> None:
        """Fold an iterable of records, in order."""
        for record in records:
            self.observe(record)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """The completion fields of ``RunMetrics``, by field name.

        Means are 0.0, and the on-time rate 1.0, over no completions.
        """
        n = self.count
        n_dedicated = self._dedicated_count
        return {
            "n_jobs": n,
            "mean_wait": self._wait_sum / n if n else 0.0,
            "mean_runtime": self._runtime_sum / n if n else 0.0,
            "mean_response": self._response_sum / n if n else 0.0,
            "mean_bounded_slowdown": self._bsld_sum / n if n else 0.0,
            "mean_per_job_slowdown": self._pjsd_sum / n if n else 0.0,
            "mean_dedicated_delay": (
                self._dedicated_delay_sum / n_dedicated if n_dedicated else 0.0
            ),
            "dedicated_on_time_rate": (
                self._dedicated_on_time / n_dedicated if n_dedicated else 1.0
            ),
        }

    def summary(self, *, utilization: float = 0.0, makespan: float = 0.0) -> OnlineSummary:
        """Freeze the aggregates (runner supplies the tracker scalars).

        Raises:
            ValueError: when the aggregator was built without ``p95=True``.
        """
        if self._p95_wait is None:
            raise ValueError("summary() needs the p95 estimator: build with p95=True")
        stats = self.stats()
        return OnlineSummary(
            slowdown=paper_slowdown(stats["mean_wait"], stats["mean_runtime"]),
            p95_wait=self._p95_wait.value(),
            utilization=utilization,
            makespan=makespan,
            **stats,
        )


__all__ = [
    "BSLD_THRESHOLD",
    "OnlineAggregator",
    "OnlineSummary",
    "P2Quantile",
    "P2_REL_TOLERANCE",
    "exact_quantile",
]
