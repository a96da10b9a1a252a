"""The paper's offered-load formula (§IV-D).

.. math::

    Load = \\frac{\\lambda}{M} \\sum_{i=1}^{N_J} \\frac{w_i.num}{\\mu_i}

with :math:`\\lambda` the inverse of the experiment duration,
:math:`M` the machine size and :math:`1/\\mu_i` the runtime of job
``i`` — i.e. total requested processor-seconds divided by the log span
times machine size.  The same convention is used for real logs in [7]:
"multiplying the job's sizes by their runtimes, summing these values,
and then dividing the result by the log's duration and the size of the
machine".
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Optional, Sequence

from repro.workload.job import Job


def span_of(submits: Sequence[float], runtimes: Iterable[float]) -> float:
    """First submission to last ``submit + runtime``; 0.0 when empty.

    Using ``max(submit + runtime)`` rather than the last submission
    avoids overstating the load of short bursty logs; for long logs the
    two coincide to within one job runtime.
    """
    if not submits:
        return 0.0
    return max(map(add, submits, runtimes)) - min(submits)


def log_span(jobs: Sequence[Job]) -> float:
    """Duration of a workload: :func:`span_of` its jobs."""
    return span_of([job.submit for job in jobs], [job.effective_runtime() for job in jobs])


def total_work(jobs: Iterable[Job]) -> float:
    """Requested processor-seconds ``sum(num x runtime)``, summed in order."""
    return sum(job.num * job.effective_runtime() for job in jobs)


def load_from(work: float, span: float, machine_size: int) -> float:
    """The Load formula on its scalars: ``work / (M x span)``.

    The one copy of the division, shared by :func:`offered_load`, the
    runner's admission-time accumulator and the load calibrator's
    probes, so all three agree bit for bit.  0.0 for a degenerate span.
    """
    if machine_size <= 0:
        raise ValueError(f"machine size must be positive, got {machine_size}")
    if span <= 0:
        return 0.0
    return work / (machine_size * span)


def offered_load(
    jobs: Sequence[Job],
    machine_size: int,
    duration: Optional[float] = None,
) -> float:
    """Offered load of a workload on a machine of ``machine_size``.

    Args:
        jobs: The workload (order irrelevant).
        machine_size: The paper's ``M``.
        duration: Override the log span (e.g. with an observed
            makespan); defaults to :func:`log_span`.

    Returns:
        The dimensionless offered load; 0.0 for empty/degenerate logs.

    >>> from repro.workload.job import Job
    >>> job = Job(job_id=1, submit=0.0, num=160, estimate=100.0)
    >>> offered_load([job], machine_size=320)
    0.5
    """
    span = log_span(jobs) if duration is None else float(duration)
    return load_from(total_work(jobs), span, machine_size)


def mean_runtime(jobs: Iterable[Job]) -> float:
    """The paper's :math:`\\bar\\mu{}^{-1}`: average job runtime."""
    jobs = list(jobs)
    if not jobs:
        return 0.0
    return sum(job.effective_runtime() for job in jobs) / len(jobs)


def mean_size(jobs: Iterable[Job]) -> float:
    """The paper's :math:`\\bar n`: average requested processors."""
    jobs = list(jobs)
    if not jobs:
        return 0.0
    return sum(job.num for job in jobs) / len(jobs)


__all__ = [
    "load_from",
    "log_span",
    "mean_runtime",
    "mean_size",
    "offered_load",
    "span_of",
    "total_work",
]
