"""Statistical helpers for the paper's metrics.

Pinned definitions:

- *slowdown* (§V): the ratio of means
  ``(mean wait + mean runtime) / mean runtime``, **not** the mean of
  per-job ratios.  Both are reported (the per-job terms live in
  :class:`repro.metrics.online.OnlineAggregator`); the paper's tables
  use the former.
- *maximum % improvement* (Tables IV–VII): improvements are computed
  per load point and the maximum over the sweep is reported, because
  "the improvements are not uniform over the entire variation in
  load" (§V-A).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (empty run)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def paper_slowdown(mean_wait: float, mean_runtime: float) -> float:
    """The paper's slowdown fraction (ratio of means).

    Returns 1.0 (no slowdown) for a degenerate zero-runtime run.

    >>> paper_slowdown(100.0, 50.0)
    3.0
    >>> paper_slowdown(0.0, 400.0)
    1.0
    """
    if mean_runtime <= 0:
        return 1.0
    return (mean_wait + mean_runtime) / mean_runtime


def improvement_percent(ours: float, baseline: float, higher_is_better: bool) -> float:
    """Percentage improvement of ``ours`` over ``baseline``.

    For higher-is-better metrics (utilization): ``(ours - base)/base``.
    For lower-is-better metrics (wait, slowdown): ``(base - ours)/base``.
    Positive = we improved.  Returns 0.0 for a zero baseline.

    >>> round(improvement_percent(0.82, 0.80, higher_is_better=True), 3)
    2.5
    >>> improvement_percent(80.0, 100.0, higher_is_better=False)
    20.0
    """
    if baseline == 0:
        return 0.0
    if higher_is_better:
        return 100.0 * (ours - baseline) / baseline
    return 100.0 * (baseline - ours) / baseline


def max_improvement(
    ours: Sequence[float], baseline: Sequence[float], higher_is_better: bool
) -> float:
    """Maximum per-point % improvement across a sweep (Tables IV–VII).

    Raises:
        ValueError: on mismatched sweep lengths.
    """
    if len(ours) != len(baseline):
        raise ValueError(
            f"sweeps have different lengths: {len(ours)} vs {len(baseline)}"
        )
    if not ours:
        return 0.0
    return max(
        improvement_percent(a, b, higher_is_better) for a, b in zip(ours, baseline)
    )


__all__ = [
    "improvement_percent",
    "max_improvement",
    "mean",
    "paper_slowdown",
]
