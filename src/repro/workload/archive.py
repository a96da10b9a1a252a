"""Loading real Parallel-Workloads-Archive logs for simulation.

Real SWF logs are messy: header comments carry the machine size,
some records lack runtimes or processor counts, sizes may violate a
target machine's granularity, submissions can be locally out of
order, and studies usually simulate an excerpt rather than a
multi-year log.  One path handles all of that:
:func:`load_swf_workload` collects it into a :class:`Workload` with a
:class:`LoadReport` of exactly what it did, so experiments on real
traces stay auditable, and
:func:`~repro.workload.streaming.stream_swf_workload` yields the same
jobs lazily.

Replays are bound by this reader, so it is cheap.  The log is read
line by line; a record of 18–21 finite numbers goes from ``float()``
straight to the rules of :meth:`~repro.workload.swf.SWFRecord.to_job`,
and its :class:`Job` is built once, then rebased and snapped in place,
keeping its malleable range.  Every other line goes through
:meth:`SWFRecord.parse <repro.workload.swf.SWFRecord.parse>` and
:meth:`~repro.workload.swf.SWFRecord.to_job`, so malformed input fails
or warns exactly as :func:`~repro.workload.swf.iter_swf` does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.workload.errors import numbered_records, source_name
from repro.workload.generator import Workload
from repro.workload.job import Job
from repro.workload.streaming import DEFAULT_LOOKAHEAD, ReorderEntry, _reorder
from repro.workload.swf import (
    _MAX_FIELDS,
    _STD_FIELDS,
    SWFParseError,
    SWFRecord,
    _job_from_fields,
    _open_text,
)

#: Header comment key (Parallel Workloads Archive convention).
_MAX_PROCS_RE = re.compile(r"^;\s*MaxProcs\s*:\s*(\d+)", re.IGNORECASE)


@dataclass
class LoadReport:
    """What :func:`load_swf_workload` kept, skipped and adjusted."""

    total_records: int = 0
    kept: int = 0
    skipped_unusable: int = 0  # no runtime/processors at all
    skipped_oversized: int = 0  # larger than the target machine
    snapped_to_granularity: int = 0
    header_max_procs: Optional[int] = None
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line description of the load."""
        parts = [f"kept {self.kept}/{self.total_records} records"]
        if self.skipped_unusable:
            parts.append(f"{self.skipped_unusable} unusable")
        if self.skipped_oversized:
            parts.append(f"{self.skipped_oversized} oversized")
        if self.snapped_to_granularity:
            parts.append(f"{self.snapped_to_granularity} snapped to granularity")
        return ", ".join(parts)


def read_header_max_procs(path: Union[str, Path]) -> Optional[int]:
    """Extract ``MaxProcs`` from an SWF header, if present."""
    with _open_text(path, "r") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if not line.startswith(";"):
                break  # records begin; header over
            match = _MAX_PROCS_RE.match(line)
            if match:
                return int(match.group(1))
    return None


def load_swf_workload(
    path: Union[str, Path],
    machine_size: Optional[int] = None,
    granularity: int = 1,
    max_jobs: Optional[int] = None,
    rebase_time: bool = True,
    strict: bool = True,
) -> Tuple[Workload, LoadReport]:
    """Load an archive SWF log into a simulatable :class:`Workload`.

    Collects the jobs that
    :func:`~repro.workload.streaming.stream_swf_workload` yields, with
    the stream's default reorder window
    (:data:`~repro.workload.streaming.DEFAULT_LOOKAHEAD` jobs).

    Args:
        path: ``.swf`` or ``.swf.gz`` file.
        machine_size: Target machine; defaults to the header's
            ``MaxProcs`` (required when the header lacks it).
        granularity: Allocation unit of the target machine; job sizes
            are snapped *up* to it (a 33-proc request needs 2 psets).
        strict: When False, syntactically malformed lines are skipped
            with a warning instead of aborting the load (see
            :func:`repro.workload.swf.iter_swf`).
        max_jobs: Keep only the first N jobs that fit, in submission
            order, the usual excerpting practice.
        rebase_time: Shift submissions so the first kept job arrives
            at t = 0.

    Returns:
        The workload and a :class:`LoadReport` of every adjustment.

    Raises:
        ValueError: when no machine size is available or no usable
            records survive.
        ~repro.workload.streaming.StreamOrderError: when a record's
            disorder in the file exceeds the reorder window.
    """
    report = LoadReport()
    size = _machine_size(path, machine_size, granularity, report)
    jobs = list(
        _swf_jobs(
            path, report, size, granularity, max_jobs, rebase_time, strict,
            DEFAULT_LOOKAHEAD,
        )
    )
    if not jobs:
        raise ValueError(f"{path}: no usable records")
    workload = Workload(
        jobs=jobs,
        machine_size=size,
        granularity=granularity,
        description=f"SWF log {Path(path).name} ({report.summary()})",
    )
    return workload, report


def _machine_size(
    path: Union[str, Path],
    machine_size: Optional[int],
    granularity: int,
    report: LoadReport,
) -> int:
    """The target machine size: ``machine_size`` or the header's ``MaxProcs``."""
    report.header_max_procs = read_header_max_procs(path)
    size = machine_size or report.header_max_procs
    if size is None:
        raise ValueError(
            f"{path}: no MaxProcs header; pass machine_size explicitly"
        )
    if size % granularity != 0:
        raise ValueError(
            f"machine size {size} is not a multiple of granularity {granularity}"
        )
    return size


def _swf_jobs(
    path: Union[str, Path],
    report: LoadReport,
    size: int,
    granularity: int,
    max_jobs: Optional[int],
    rebase_time: bool,
    strict: bool,
    lookahead: Optional[int],
) -> Iterator[Job]:
    """Yield the simulatable jobs of an SWF log, tallying into ``report``.

    The one path of both loaders.  :func:`_swf_entries` reads the
    usable records; the bounded reorder buffer restores submission
    order.  Then, in that order, the first ``max_jobs`` that fit are
    kept: sizes are rounded up to ``granularity`` (raising a declared
    ``max_procs`` that falls below), jobs larger than ``size`` are
    skipped, and submissions are rebased to the first kept one.  Each
    job is adjusted in place, so it is built once.
    """
    origin: Optional[float] = None
    for _, _, _, job in _reorder(_swf_entries(path, report, strict), lookahead, str(path)):
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
        if origin:
            job.submit -= origin
            if job.submit < 0:  # only an unsorted log read with lookahead=None
                raise ValueError(
                    f"job {job.job_id}: negative submit time {job.submit}"
                )
            if job.cancel_at is not None:
                job.cancel_at -= origin
        if num != job.num:
            job.num = num
            if job.max_procs is not None and job.max_procs < num:
                job.max_procs = num
        report.kept += 1
        yield job


def _swf_entries(
    path: Union[str, Path], report: LoadReport, strict: bool
) -> Iterator[ReorderEntry]:
    """Yield ``(submit, job_id, line, job)`` for each usable record, in file order.

    Counts every record into ``report.total_records`` and the ones
    with no usable runtime or processor count into
    ``report.skipped_unusable``.  A record of 18–21 finite numbers
    goes from ``float()`` straight to the rules of
    :meth:`SWFRecord.to_job`, building its :class:`Job` once.  Any
    other line (blank, comment, short, malformed, non-finite) takes
    :func:`_parse_line`, so errors and warnings are those of
    :func:`~repro.workload.swf.iter_swf`.
    """
    with _open_text(path, "r") as fh:
        source = source_name(fh)
        for lineno, line in enumerate(fh, 1):
            try:
                f = list(map(float, line.split()))
            except ValueError:
                f = []
            n = len(f)
            # ``total - total`` is nan for a nan or inf anywhere.
            if n < _STD_FIELDS or n > _MAX_FIELDS or (total := sum(f)) - total:
                job = _parse_line(line, lineno, source, strict, report)
                if job is not None:
                    yield job.submit, job.job_id, lineno, job
                continue
            report.total_records += 1
            try:
                job = _job_from_fields(f)
            except SWFParseError:
                report.skipped_unusable += 1
                continue
            yield job.submit, job.job_id, lineno, job


def _parse_line(
    line: str, lineno: int, source: Optional[str], strict: bool, report: LoadReport
) -> Optional[Job]:
    """The per-line path: :meth:`SWFRecord.parse`, then :meth:`SWFRecord.to_job`.

    Returns ``None`` for a blank or comment line, a malformed line
    skipped under ``strict=False``, and an unusable record.
    """
    for _, record in numbered_records(
        (line,), SWFRecord.parse, strict=strict, source=source,
        error_cls=SWFParseError, start=lineno,
    ):
        report.total_records += 1
        try:
            return record.to_job()
        except SWFParseError:
            report.skipped_unusable += 1
    return None


__all__ = ["LoadReport", "load_swf_workload", "read_header_max_procs"]
