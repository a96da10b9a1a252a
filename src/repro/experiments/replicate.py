"""Multi-seed replication of sweeps.

The paper plots a *single* simulation run per point ("each point ...
corresponds to a single simulation run with a total of N_J = 500
jobs") and notes that 10 000-job runs did not change the picture.  For
a reproduction it is worth quantifying the run-to-run spread, so this
module replicates a sweep across seeds and aggregates mean ±
half-width of a normal-approximation confidence interval per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.experiments.sweep import SweepResult

#: z-scores for the confidence levels we expose.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class AggregatedPoint:
    """Mean and confidence half-width of one metric at one sweep point."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


@dataclass
class ReplicatedSweep:
    """Aggregate of several same-shape :class:`SweepResult` replicas.

    Attributes:
        sweep_label: Name of the swept variable.
        sweep_values: Mean realized x-values across replicas.
        replicas: The underlying per-seed sweeps.
    """

    sweep_label: str
    sweep_values: List[float]
    replicas: List[SweepResult] = field(default_factory=list)

    def aggregate(
        self, algorithm: str, metric: str, confidence: float = 0.95
    ) -> List[AggregatedPoint]:
        """Per-point mean ± CI half-width of ``metric`` for ``algorithm``."""
        try:
            z = _Z[confidence]
        except KeyError:
            raise ValueError(
                f"confidence must be one of {sorted(_Z)}, got {confidence}"
            ) from None
        points: List[AggregatedPoint] = []
        n_points = len(self.sweep_values)
        for index in range(n_points):
            samples = [
                replica.metric_series(algorithm, metric)[index]
                for replica in self.replicas
            ]
            n = len(samples)
            mean = sum(samples) / n
            if n > 1:
                variance = sum((s - mean) ** 2 for s in samples) / (n - 1)
                half = z * math.sqrt(variance / n)
            else:
                half = 0.0
            points.append(AggregatedPoint(mean=mean, half_width=half, n=n))
        return points

    def algorithms(self) -> List[str]:
        """Algorithms present in every replica."""
        if not self.replicas:
            return []
        names = set(self.replicas[0].series)
        for replica in self.replicas[1:]:
            names &= set(replica.series)
        return sorted(names)

    def significant_gap(
        self, better: str, worse: str, metric: str, confidence: float = 0.95
    ) -> bool:
        """Whether ``better`` beats ``worse`` with non-overlapping CIs
        on the sweep-mean of a lower-is-better ``metric``."""
        b = self.aggregate(better, metric, confidence)
        w = self.aggregate(worse, metric, confidence)
        b_mean = sum(p.mean for p in b) / len(b)
        b_half = sum(p.half_width for p in b) / len(b)
        w_mean = sum(p.mean for p in w) / len(w)
        w_half = sum(p.half_width for p in w) / len(w)
        return b_mean + b_half < w_mean - w_half


def replicate_sweep(
    run_one: Callable[[int], SweepResult],
    seeds: Sequence[int],
) -> ReplicatedSweep:
    """Run ``run_one(seed)`` for every seed and aggregate.

    All replicas must share the sweep label and point count; realized
    x-values (e.g. achieved loads) may differ slightly per seed and are
    averaged.  Seeds run one after another; each replica's sweep fans
    its own runs out through :func:`~repro.experiments.parallel.execute_runs`.

    Raises:
        ValueError: on empty seeds or mismatched replica shapes.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    replicas = [run_one(seed) for seed in seeds]
    first = replicas[0]
    for replica in replicas[1:]:
        if replica.sweep_label != first.sweep_label or len(
            replica.sweep_values
        ) != len(first.sweep_values):
            raise ValueError("replicas have mismatched sweep shapes")
    n_points = len(first.sweep_values)
    mean_values = [
        sum(replica.sweep_values[i] for replica in replicas) / len(replicas)
        for i in range(n_points)
    ]
    return ReplicatedSweep(
        sweep_label=first.sweep_label,
        sweep_values=mean_values,
        replicas=replicas,
    )


def format_replicated(
    replicated: ReplicatedSweep,
    metric: str,
    confidence: float = 0.95,
) -> str:
    """Tabular report: sweep value × algorithm, mean ± CI half-width."""
    from repro.metrics.report import format_table

    algorithms = replicated.algorithms()
    headers = [replicated.sweep_label] + algorithms
    aggregates: Dict[str, List[AggregatedPoint]] = {
        name: replicated.aggregate(name, metric, confidence) for name in algorithms
    }
    rows = []
    for index, x in enumerate(replicated.sweep_values):
        row: List[object] = [round(x, 4)]
        for name in algorithms:
            row.append(str(aggregates[name][index]))
        rows.append(row)
    title = (
        f"{metric} (mean ± {int(confidence * 100)}% CI over "
        f"{len(replicated.replicas)} seeds)"
    )
    return f"{title}\n" + format_table(headers, rows)


__all__ = [
    "AggregatedPoint",
    "ReplicatedSweep",
    "format_replicated",
    "replicate_sweep",
]
