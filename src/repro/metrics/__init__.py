"""Performance metrics (§V).

The paper reports *mean values* of system utilization, job waiting
time and slowdown, with slowdown defined as the ratio of means
``(mean_wait + mean_runtime) / mean_runtime``.  We fold every
completion into those means exactly as it happens
(:mod:`repro.metrics.online`), collect per-job records during
simulation (:mod:`repro.metrics.records`), and format comparison
tables (:mod:`repro.metrics.report`).
"""

from repro.metrics.online import OnlineAggregator, OnlineSummary, P2Quantile
from repro.metrics.records import FailureRecord, JobRecord, RunMetrics
from repro.metrics.stats import (
    improvement_percent,
    max_improvement,
    mean,
    paper_slowdown,
)
from repro.metrics.report import format_comparison_table, format_metrics_table

__all__ = [
    "FailureRecord",
    "JobRecord",
    "OnlineAggregator",
    "OnlineSummary",
    "P2Quantile",
    "RunMetrics",
    "format_comparison_table",
    "format_metrics_table",
    "improvement_percent",
    "max_improvement",
    "mean",
    "paper_slowdown",
]
