"""Greedy ordered-queue baselines from the related work (§II-B).

The paper's state-of-the-art survey discusses three pre-backfilling
policies, all of which reorder the waiting queue instead of honouring
FCFS:

- *shortest-job-first* [3]: pick the shortest estimated runtime that
  fits ("must precisely estimate jobs' execution times"),
- *smallest-job-first* (Majumdar et al. [10]): pick the fewest
  processors that fit — found to "cause large fragmentation",
- *largest-job-first* (Li et al. [11]): pick the most processors that
  fit, motivated by first-fit-decreasing bin packing.

Studies [5], [13] found none of these "necessarily perform better than
a straightforward FCFS" — a claim
``benchmarks/bench_related_work_shootout.py`` revisits on the paper's
workload model.  None of them protects the queue head, so large jobs
can be overtaken indefinitely while arrivals continue (they cannot
starve forever on finite workloads: once arrivals cease the machine
drains and everything fits).
"""

from __future__ import annotations

import abc

from repro.core.base import CycleDecision, Scheduler, SchedulerContext
from repro.workload.job import Job


class GreedyOrderedPolicy(Scheduler):
    """Starts, each pass, the best-priority queued job that fits.

    Subclasses define :meth:`priority`; lower sorts first.  Ties break
    by arrival then id, keeping the policies deterministic.
    """

    @abc.abstractmethod
    def priority(self, job: Job) -> float:
        """Primary sort key (lower = preferred)."""

    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        m = ctx.free
        if m <= 0 or not ctx.batch_queue:
            return CycleDecision.nothing()
        candidates = [job for job in ctx.batch_queue if job.num <= m]
        if not candidates:
            return CycleDecision.nothing()
        best = min(
            candidates, key=lambda job: (self.priority(job), job.submit, job.job_id)
        )
        return CycleDecision(starts=[best])


class ShortestJobFirst(GreedyOrderedPolicy):
    """SJF [3]: prefer the shortest user-estimated runtime."""

    name = "SJF"

    def priority(self, job: Job) -> float:
        return job.estimate


class SmallestJobFirst(GreedyOrderedPolicy):
    """Smallest-job-first [10]: prefer the fewest requested processors.

    Majumdar et al. found it performs poorly — small jobs "do not
    necessarily terminate quickly and cause large fragmentation".
    """

    name = "SMALLEST"

    def priority(self, job: Job) -> float:
        return job.num


class LargestJobFirst(GreedyOrderedPolicy):
    """Largest-job-first [11]: prefer the most requested processors.

    First-fit-decreasing intuition from bin packing [12]; "large jobs
    do not necessarily require long execution times".
    """

    name = "LJF"

    def priority(self, job: Job) -> float:
        return -job.num


__all__ = [
    "GreedyOrderedPolicy",
    "LargestJobFirst",
    "ShortestJobFirst",
    "SmallestJobFirst",
]
