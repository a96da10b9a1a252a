"""Workload characterization.

Summarizes a workload the way the paper's §IV-D/§V describe theirs:
job counts by class, the mean size (``n̄``) and runtime, the offered
load, size histogram in granularity units, arrival burstiness, and ECC
composition.  Used by ``repro-sim --stats`` and handy when validating
externally supplied CWF/SWF traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.workload.generator import Workload
from repro.workload.load import log_span, mean_runtime, mean_size


@dataclass(frozen=True)
class WorkloadStats:
    """Summary statistics of one workload."""

    n_jobs: int
    n_batch: int
    n_dedicated: int
    n_eccs: int
    machine_size: int
    granularity: int
    offered_load: float
    span_seconds: float
    mean_size: float
    mean_runtime: float
    p_small_empirical: float
    size_histogram: Dict[int, int]
    runtime_quantiles: Dict[str, float]
    interarrival_mean: float
    interarrival_cv: float
    ecc_kinds: Dict[str, int]

    def lines(self) -> List[str]:
        """Human-readable report lines."""
        out = [
            f"jobs:             {self.n_jobs} "
            f"({self.n_batch} batch, {self.n_dedicated} dedicated)",
            f"ECCs:             {self.n_eccs} {self.ecc_kinds or ''}".rstrip(),
            f"machine:          M={self.machine_size}, granularity={self.granularity}",
            f"offered load:     {self.offered_load:.3f} over {self.span_seconds:.0f} s",
            f"mean size (n̄):    {self.mean_size:.1f} processors "
            f"(small-job share {self.p_small_empirical:.0%})",
            f"mean runtime:     {self.mean_runtime:.0f} s "
            f"(p50 {self.runtime_quantiles['p50']:.0f}, "
            f"p90 {self.runtime_quantiles['p90']:.0f}, "
            f"p99 {self.runtime_quantiles['p99']:.0f})",
            f"inter-arrival:    mean {self.interarrival_mean:.1f} s, "
            f"cv {self.interarrival_cv:.2f}",
            "size histogram:   "
            + " ".join(f"{size}:{count}" for size, count in sorted(self.size_histogram.items())),
        ]
        return out

    def render(self) -> str:
        """The report as one string."""
        return "\n".join(self.lines())


def characterize(workload: Workload, small_threshold: int = 96) -> WorkloadStats:
    """Compute :class:`WorkloadStats` for a workload.

    Args:
        workload: The workload to characterize.
        small_threshold: Jobs of at most this many processors count as
            "small" (96 = the paper's small/large boundary on BG/P).
    """
    jobs = workload.jobs
    runtimes = np.array([job.effective_runtime() for job in jobs]) if jobs else np.array([0.0])
    submits = sorted(job.submit for job in jobs)
    gaps = np.diff(submits) if len(submits) > 1 else np.array([0.0])
    histogram: Dict[int, int] = {}
    for job in jobs:
        histogram[job.num] = histogram.get(job.num, 0) + 1
    ecc_kinds: Dict[str, int] = {}
    for ecc in workload.eccs:
        ecc_kinds[ecc.kind.value] = ecc_kinds.get(ecc.kind.value, 0) + 1

    gap_mean = float(gaps.mean()) if gaps.size else 0.0
    gap_cv = float(gaps.std() / gap_mean) if gap_mean > 0 else 0.0
    return WorkloadStats(
        n_jobs=len(jobs),
        n_batch=len(workload.batch_jobs),
        n_dedicated=len(workload.dedicated_jobs),
        n_eccs=len(workload.eccs),
        machine_size=workload.machine_size,
        granularity=workload.granularity,
        offered_load=workload.offered_load(),
        span_seconds=log_span(jobs),
        mean_size=mean_size(jobs),
        mean_runtime=mean_runtime(jobs),
        p_small_empirical=(
            sum(1 for job in jobs if job.num <= small_threshold) / len(jobs)
            if jobs
            else 0.0
        ),
        size_histogram=histogram,
        runtime_quantiles={
            "p50": float(np.percentile(runtimes, 50)),
            "p90": float(np.percentile(runtimes, 90)),
            "p99": float(np.percentile(runtimes, 99)),
        },
        interarrival_mean=gap_mean,
        interarrival_cv=gap_cv,
        ecc_kinds=ecc_kinds,
    )


__all__ = ["WorkloadStats", "characterize"]
