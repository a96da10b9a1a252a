"""The record-walking metrics: the reference for the one completion fold.

:class:`~repro.metrics.records.RunMetrics` stores the sums
:class:`~repro.metrics.online.OnlineAggregator` folds at each finish.
Before that it derived every mean by walking ``records`` on each read.
:class:`RecordMetrics` keeps those properties as they were, each mean
written as an explicit left-to-right loop over the records: the
additions ``sum()`` performed on CPython 3.11, which adds floats in
order without compensation.  A run that keeps its records must report
the same values, bit for bit (``tests/metrics/test_records.py``).

:func:`per_job_slowdowns` and :func:`bounded_slowdown` are the per-job
helpers those properties used.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.metrics.records import JobRecord, RunMetrics
from repro.metrics.stats import paper_slowdown
from repro.workload.job import JobKind


def mean(values: Iterable[float]) -> float:
    """Left-to-right arithmetic mean; 0.0 for no values."""
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    return total / count if count else 0.0


def per_job_slowdowns(pairs: Iterable[Tuple[float, float]]) -> List[float]:
    """Per-job slowdowns ``(wait + run) / run`` for (wait, run) pairs.

    Zero-runtime jobs are guarded with a 1-second floor, the usual
    convention in the backfilling literature.
    """
    out = []
    for wait, runtime in pairs:
        denom = max(1.0, runtime)
        out.append((wait + runtime) / denom)
    return out


def bounded_slowdown(
    pairs: Iterable[Tuple[float, float]], threshold: float = 10.0
) -> List[float]:
    """Bounded slowdown (Feitelson): short jobs do not dominate.

    ``max(1, (wait + run) / max(run, threshold))`` per job.
    """
    out = []
    for wait, runtime in pairs:
        out.append(max(1.0, (wait + runtime) / max(runtime, threshold)))
    return out


class RecordMetrics:
    """``RunMetrics``' completion statistics, re-walked from its records."""

    def __init__(self, metrics: RunMetrics) -> None:
        self.metrics = metrics
        self.records: Sequence[JobRecord] = metrics.records

    @property
    def n_jobs(self) -> int:
        """Number of completed jobs."""
        return len(self.records)

    @property
    def mean_wait(self) -> float:
        """Mean job waiting time (seconds)."""
        return mean([r.wait for r in self.records])

    @property
    def mean_runtime(self) -> float:
        """Mean realized runtime (seconds)."""
        return mean([r.runtime for r in self.records])

    @property
    def slowdown(self) -> float:
        """The paper's slowdown: ``(mean wait + mean runtime) / mean runtime``."""
        return paper_slowdown(self.mean_wait, self.mean_runtime)

    @property
    def mean_per_job_slowdown(self) -> float:
        """Mean of per-job slowdowns ``(wait + run) / run`` (extra metric)."""
        return mean(
            per_job_slowdowns(
                [(r.wait, r.runtime) for r in self.records]
            )
        )

    @property
    def mean_response(self) -> float:
        """Mean response time ``wait + runtime`` (seconds)."""
        return mean(r.wait + r.runtime for r in self.records)

    @property
    def mean_bounded_slowdown(self) -> float:
        """Mean Feitelson bounded slowdown (10 s threshold)."""
        return mean(bounded_slowdown((r.wait, r.runtime) for r in self.records))

    def dedicated_records(self) -> List[JobRecord]:
        """Records of dedicated jobs only."""
        return [r for r in self.records if r.kind is JobKind.DEDICATED]

    @property
    def dedicated_on_time_rate(self) -> float:
        """Fraction of dedicated jobs started at their requested time."""
        dedicated = self.dedicated_records()
        if not dedicated:
            return 1.0
        on_time = sum(1 for r in dedicated if (r.dedicated_delay or 0.0) == 0.0)
        return on_time / len(dedicated)

    @property
    def mean_dedicated_delay(self) -> float:
        """Mean start lateness of dedicated jobs (0 when none)."""
        dedicated = self.dedicated_records()
        return mean([r.dedicated_delay or 0.0 for r in dedicated])

    def as_row(self) -> Dict[str, float]:
        """``RunMetrics.as_row()`` with the completion statistics re-walked."""
        metrics = self.metrics
        return {
            "utilization": metrics.utilization,
            "mean_wait": self.mean_wait,
            "slowdown": self.slowdown,
            "mean_runtime": self.mean_runtime,
            "makespan": metrics.makespan,
            "offered_load": metrics.offered_load,
            "n_jobs": float(self.n_jobs),
            "failed_jobs": float(metrics.failed_jobs),
            "requeue_count": float(metrics.requeue_count),
            "lost_work": metrics.lost_work,
            "degraded_time": metrics.degraded_time,
            "node_failures": float(metrics.node_failures),
        }


#: ``RunMetrics`` scalars :class:`RecordMetrics` re-walks, beyond ``as_row()``.
EXTRA_SCALARS = (
    "mean_response",
    "mean_bounded_slowdown",
    "mean_per_job_slowdown",
    "mean_dedicated_delay",
    "dedicated_on_time_rate",
)


def differences(metrics: RunMetrics) -> List[str]:
    """Where ``metrics`` departs from its records' reference values (bitwise)."""
    reference = RecordMetrics(metrics)
    found = []
    expected, got = reference.as_row(), metrics.as_row()
    if repr(got) != repr(expected):
        found.append(f"as_row(): {got!r} != reference {expected!r}")
    for name in EXTRA_SCALARS:
        ours, theirs = getattr(metrics, name), getattr(reference, name)
        if repr(ours) != repr(theirs):
            found.append(f"{name}: {ours!r} != reference {theirs!r}")
    return found
