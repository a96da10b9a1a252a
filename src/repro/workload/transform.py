"""Workload transformations: slicing, merging, filtering.

Standard trace-handling operations when working with archive logs or
composing scenarios:

- :func:`time_slice` — extract a submission window (re-based to t=0),
- :func:`merge` — combine workloads (e.g. a batch background plus a
  hand-built dedicated schedule) with job-id collision handling,
- :func:`filter_jobs` — keep a predicate-selected subset with its ECCs,
- :func:`head` — the first N jobs by submission,
- :func:`make_malleable` — declare ``[min, pref, max]`` processor
  ranges on a sampled subset of batch jobs (docs/malleability.md).

All functions return new :class:`Workload` objects; inputs are never
mutated (jobs are copied via :meth:`Job.copy_for_run`).
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Sequence

from repro.workload.ecc import ECC
from repro.workload.generator import Workload
from repro.workload.job import Job


def _copy_shift(job: Job, delta: float) -> Job:
    return Job(
        job_id=job.job_id,
        submit=job.submit + delta,
        num=job.num,
        estimate=job.original_estimate,
        actual=job.actual,
        kind=job.kind,
        requested_start=(
            None if job.requested_start is None else job.requested_start + delta
        ),
        cancel_at=None if job.cancel_at is None else job.cancel_at + delta,
        min_procs=job.min_procs,
        pref_procs=job.pref_procs,
        max_procs=job.max_procs,
    )


def time_slice(
    workload: Workload,
    start: float,
    end: float,
    rebase: bool = True,
) -> Workload:
    """Jobs submitted in ``[start, end)``, with their ECCs.

    Args:
        workload: Source workload.
        start / end: Submission-time window.
        rebase: Shift the slice so its first kept submission is the
            window start relative to zero (standard when excerpting
            archive logs).

    Raises:
        ValueError: when ``start >= end``.
    """
    if start >= end:
        raise ValueError(f"empty window [{start}, {end})")
    kept = [job for job in workload.jobs if start <= job.submit < end]
    delta = -start if rebase else 0.0
    kept_ids = {job.job_id for job in kept}
    jobs = [_copy_shift(job, delta) for job in kept]
    eccs = [
        ECC(
            job_id=e.job_id,
            issue_time=max(0.0, e.issue_time + delta),
            kind=e.kind,
            amount=e.amount,
        )
        for e in workload.eccs
        if e.job_id in kept_ids
    ]
    return Workload(
        jobs=jobs,
        eccs=eccs,
        machine_size=workload.machine_size,
        granularity=workload.granularity,
        description=f"{workload.description} [slice {start:g}..{end:g})".strip(),
    )


def filter_jobs(
    workload: Workload, predicate: Callable[[Job], bool]
) -> Workload:
    """Keep jobs satisfying ``predicate`` (and their ECCs)."""
    kept = [job.copy_for_run() for job in workload.jobs if predicate(job)]
    kept_ids = {job.job_id for job in kept}
    return Workload(
        jobs=kept,
        eccs=[e for e in workload.eccs if e.job_id in kept_ids],
        machine_size=workload.machine_size,
        granularity=workload.granularity,
        description=f"{workload.description} [filtered]".strip(),
    )


def head(workload: Workload, n: int) -> Workload:
    """The first ``n`` jobs by submission order (with their ECCs)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    kept_ids = {job.job_id for job in workload.jobs[:n]}
    return filter_jobs(workload, lambda job: job.job_id in kept_ids)


def make_malleable(
    workload: Workload,
    fraction: float = 1.0,
    *,
    min_factor: float = 0.5,
    pref_factor: float = 1.5,
    max_factor: float = 2.0,
    seed: int = 0,
) -> Workload:
    """Declare a malleability range on a sampled subset of batch jobs.

    The rigid sizes and runtimes are untouched — a job selected here
    merely *permits* the scheduler-initiated malleability layer
    (:mod:`repro.core.malleable`, docs/malleability.md) to resize it at
    runtime.  Under any non-malleable policy the returned workload
    therefore behaves byte-identically to the input
    (``tests/core/test_malleable_equivalence.py`` pins this).

    Args:
        workload: Source workload (never mutated).
        fraction: Probability each *batch* job is made malleable
            (dedicated jobs are rigid in time and stay rigid in size).
        min_factor: ``min_procs = num * min_factor`` (floored, clamped
            into ``[1, num]``).
        pref_factor: ``pref_procs = num * pref_factor`` (rounded,
            clamped into the range).
        max_factor: ``max_procs = num * max_factor`` (ceiled, clamped
            into ``[num, machine_size]``).
        seed: Selection RNG seed — one draw per batch job in workload
            order, so the same seed always picks the same jobs.

    Raises:
        ValueError: on a fraction outside ``[0, 1]`` or factors that
            cannot produce a valid range.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not 0.0 < min_factor <= 1.0:
        raise ValueError(f"min_factor must be in (0, 1], got {min_factor}")
    if max_factor < 1.0:
        raise ValueError(f"max_factor must be >= 1, got {max_factor}")
    rng = random.Random(seed)
    machine_size = workload.machine_size
    jobs: List[Job] = []
    for job in workload.jobs:
        clone = job.copy_for_run()
        if not clone.is_dedicated and rng.random() < fraction:
            lo = max(1, min(clone.num, int(clone.num * min_factor)))
            hi = max(clone.num, min(machine_size, math.ceil(clone.num * max_factor)))
            pref = max(lo, min(hi, int(round(clone.num * pref_factor))))
            clone.min_procs = lo
            clone.pref_procs = pref
            clone.max_procs = hi
        jobs.append(clone)
    return Workload(
        jobs=jobs,
        eccs=list(workload.eccs),
        machine_size=machine_size,
        granularity=workload.granularity,
        description=f"{workload.description} [malleable f={fraction:g}]".strip(),
    )


def merge(
    workloads: Sequence[Workload],
    machine_size: Optional[int] = None,
    granularity: Optional[int] = None,
) -> Workload:
    """Combine workloads into one, remapping colliding job ids.

    Ids from the first workload are preserved; later workloads keep
    their ids where unique and otherwise get fresh ids above the
    current maximum (their ECCs are remapped consistently).

    Args:
        workloads: At least one source.
        machine_size / granularity: Target geometry; defaults to the
            maxima across sources (so every job still fits).
    """
    if not workloads:
        raise ValueError("need at least one workload")
    target_machine = machine_size or max(w.machine_size for w in workloads)
    target_gran = granularity or max(w.granularity for w in workloads)

    jobs: List[Job] = []
    eccs: List[ECC] = []
    used_ids: set[int] = set()
    next_id = 1
    for source in workloads:
        remap: dict[int, int] = {}
        for job in source.jobs:
            new_id = job.job_id
            if new_id in used_ids:
                while next_id in used_ids:
                    next_id += 1
                new_id = next_id
            remap[job.job_id] = new_id
            used_ids.add(new_id)
            clone = job.copy_for_run()
            clone.job_id = new_id
            jobs.append(clone)
        for ecc in source.eccs:
            eccs.append(
                ECC(
                    job_id=remap[ecc.job_id],
                    issue_time=ecc.issue_time,
                    kind=ecc.kind,
                    amount=ecc.amount,
                )
            )
    return Workload(
        jobs=jobs,
        eccs=eccs,
        machine_size=target_machine,
        granularity=target_gran,
        description=f"merge of {len(workloads)} workloads",
    )


__all__ = ["filter_jobs", "head", "make_malleable", "merge", "time_slice"]
