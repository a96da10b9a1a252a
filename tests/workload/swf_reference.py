"""Per-record SWF reading and writing: the references for the fast paths.

:func:`reference_to_line` is the per-field text rule that
:meth:`SWFRecord.to_line` applied before it precomputed its int/float
mask; ``tests/workload/test_swf.py`` holds the writer byte-equal to it.

The rest is the path both SWF loaders took before the fast reader in
:mod:`repro.workload.archive`:

- every line goes through :func:`~repro.workload.swf.iter_swf`, so
  through :meth:`SWFRecord.parse`, and every record through
  :meth:`SWFRecord.to_job`;
- a plain bounded heap restores ``(submit, job_id)`` order, with file
  order breaking ties;
- every rebased or snapped job is built anew by the :class:`Job`
  constructor, keeping its malleable range and raising ``max_procs``
  to a snapped size above it.

``tests/workload/test_swf_fast_path.py`` holds the fast reader and
:func:`repro.workload.streaming._reorder` to it.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Optional

from repro.workload.archive import LoadReport
from repro.workload.job import Job
from repro.workload.streaming import ReorderEntry, StreamOrderError
from repro.workload.swf import SWFParseError, SWFRecord, iter_swf


def reference_to_line(record: SWFRecord) -> str:
    """One SWF line for ``record``, field by field.

    Int fields are written truncated to an int; a float field is
    written as an int when its value is integral and with two decimals
    otherwise.  The malleability columns are appended only when set.
    """
    parts = []
    for name in record.FIELD_NAMES:
        value = getattr(record, name)
        if name in record._INT_FIELDS:
            parts.append(str(int(value)))
        else:
            parts.append(str(int(value)) if float(value).is_integer() else f"{value:.2f}")
    if record.has_malleable_range:
        for name in record.RANGE_FIELD_NAMES:
            parts.append(str(int(getattr(record, name))))
    return " ".join(parts)


def heap_reorder(
    entries: Iterable[ReorderEntry], lookahead: Optional[int], source: str
) -> Iterator[ReorderEntry]:
    """``(submit, job_id, seq, job)`` entries in key order through one bounded heap."""
    if lookahead is None:
        yield from entries
        return
    if lookahead < 1:
        raise ValueError(f"lookahead must be positive, got {lookahead}")
    heap: list = []
    horizon = None
    for entry in entries:
        submit, job_id = entry[0], entry[1]
        if horizon is not None and (submit, job_id) < horizon[:2]:
            raise StreamOrderError(
                f"job {job_id} (submit={submit:g}) arrives "
                f"{horizon[0] - submit:g}s before already-yielded work; "
                f"disorder exceeds lookahead={lookahead}",
                source=source,
            )
        heapq.heappush(heap, entry)
        if len(heap) > lookahead:
            horizon = heapq.heappop(heap)
            yield horizon
    while heap:
        yield heapq.heappop(heap)


def reference_swf_jobs(
    path,
    report: LoadReport,
    size: int,
    granularity: int,
    max_jobs: Optional[int],
    rebase_time: bool,
    strict: bool,
    lookahead: Optional[int],
) -> Iterator[Job]:
    """The jobs of an SWF log, as :func:`repro.workload.archive._swf_jobs` yields them."""

    def usable() -> Iterator[ReorderEntry]:
        for seq, record in enumerate(iter_swf(path, strict=strict)):
            report.total_records += 1
            try:
                job = record.to_job()
            except SWFParseError:
                report.skipped_unusable += 1
                continue
            yield job.submit, job.job_id, seq, job

    origin: Optional[float] = None
    for _, _, _, job in heap_reorder(usable(), lookahead, str(path)):
        if max_jobs is not None and report.kept >= max_jobs:
            return
        num = job.num
        if num % granularity != 0:
            num = ((num + granularity - 1) // granularity) * granularity
            report.snapped_to_granularity += 1
        if num > size:
            report.skipped_oversized += 1
            continue
        if origin is None:
            origin = job.submit if rebase_time else 0.0
            if origin > 0:
                report.notes.append(f"rebased submissions by -{origin:g}s")
        if num != job.num or origin:
            max_procs = job.max_procs
            job = Job(
                job_id=job.job_id,
                submit=job.submit - origin,
                num=num,
                estimate=job.original_estimate,
                actual=job.actual,
                kind=job.kind,
                cancel_at=None if job.cancel_at is None else job.cancel_at - origin,
                min_procs=job.min_procs,
                pref_procs=job.pref_procs,
                max_procs=None if max_procs is None else max(max_procs, num),
            )
        report.kept += 1
        yield job
