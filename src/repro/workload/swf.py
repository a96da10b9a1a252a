"""Standard Workload Format (SWF) support.

SWF is the Parallel Workloads Archive format [21]: one job per line,
18 whitespace-separated numeric fields, ``;`` comment lines carrying
header metadata.  We implement the subset of semantics the scheduling
literature relies on (submit time, requested processors, requested
time, run time, status) and preserve all 18 fields for round-tripping.

Field reference (1-indexed, as in the archive spec):

====  =======================  ==========================================
 #    Name                     Notes
====  =======================  ==========================================
 1    job number               unique, usually 1..N
 2    submit time              seconds from the log start
 3    wait time                seconds (−1 when unknown)
 4    run time                 actual runtime, seconds
 5    allocated processors
 6    average CPU time used
 7    used memory
 8    requested processors
 9    requested time           user runtime estimate (kill-by basis)
 10   requested memory
 11   status                   1 = completed, 0 = failed, 5 = cancelled
 12   user id
 13   group id
 14   executable id
 15   queue id
 16   partition id
 17   preceding job
 18   think time
====  =======================  ==========================================

Optional malleability extension (this repo; docs/malleability.md):
fields 19–21 carry a job's ``min/pref/max`` processor range for the
scheduler-initiated malleability layer.  ``-1`` (or absence — archive
logs always stop at 18 fields) means rigid, so every legacy trace
parses unchanged and round-trips without the extra columns.

====  =======================  ==========================================
 19   min processors           smallest size the job can shrink to
 20   preferred processors     size the job would ideally run at
 21   max processors           largest size the job can expand to
====  =======================  ==========================================

:meth:`SWFRecord.parse` and :meth:`SWFRecord.to_job` define how a line
becomes a job.  The simulation loaders in :mod:`repro.workload.archive`
convert well-formed lines with ``float()`` and hand the numbers to the
rules ``to_job`` itself applies; every other line goes to
:meth:`SWFRecord.parse`, so its errors are theirs.
"""

from __future__ import annotations

import gzip
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, TextIO, Union

from repro.workload.errors import WorkloadFormatError, numbered_records, source_name
from repro.workload.job import Job

UNKNOWN = -1


class SWFParseError(WorkloadFormatError):
    """Raised when a line cannot be parsed as an SWF record.

    Carries ``source``/``line`` context when raised by the file-level
    readers; see :class:`repro.workload.errors.WorkloadFormatError`.
    """


@dataclass
class SWFRecord:
    """One SWF line with all 18 standard fields."""

    job_id: int
    submit: float
    wait: float = UNKNOWN
    run_time: float = UNKNOWN
    allocated_procs: int = UNKNOWN
    avg_cpu_time: float = UNKNOWN
    used_memory: float = UNKNOWN
    requested_procs: int = UNKNOWN
    requested_time: float = UNKNOWN
    requested_memory: float = UNKNOWN
    status: int = UNKNOWN
    user_id: int = UNKNOWN
    group_id: int = UNKNOWN
    executable: int = UNKNOWN
    queue: int = UNKNOWN
    partition: int = UNKNOWN
    preceding_job: int = UNKNOWN
    think_time: float = UNKNOWN
    # Malleability extension (optional fields 19–21; UNKNOWN = rigid).
    min_procs: int = UNKNOWN
    pref_procs: int = UNKNOWN
    max_procs: int = UNKNOWN

    FIELD_NAMES = (
        "job_id",
        "submit",
        "wait",
        "run_time",
        "allocated_procs",
        "avg_cpu_time",
        "used_memory",
        "requested_procs",
        "requested_time",
        "requested_memory",
        "status",
        "user_id",
        "group_id",
        "executable",
        "queue",
        "partition",
        "preceding_job",
        "think_time",
    )

    #: Optional trailing columns (fields 19–21): the malleability range.
    RANGE_FIELD_NAMES = ("min_procs", "pref_procs", "max_procs")

    _INT_FIELDS = frozenset(
        {
            "job_id",
            "allocated_procs",
            "requested_procs",
            "status",
            "user_id",
            "group_id",
            "executable",
            "queue",
            "partition",
            "preceding_job",
            "min_procs",
            "pref_procs",
            "max_procs",
        }
    )

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, line: str) -> "SWFRecord":
        """Parse one non-comment SWF line.

        Lines shorter than 18 fields are padded with ``-1`` (several
        archive logs truncate trailing unknowns); fields 19–21, when
        present, carry the malleability range.  Lines longer than 21
        fields, with fewer than 2, or with a non-numeric or non-finite
        (``nan``, ``inf``, ``1e400``) token raise :class:`SWFParseError`.
        """
        tokens = line.split()
        if not tokens:
            raise SWFParseError("empty line")
        names = cls.FIELD_NAMES + cls.RANGE_FIELD_NAMES
        if len(tokens) > len(names):
            raise SWFParseError(
                f"expected at most {len(names)} fields, got {len(tokens)}"
            )
        if len(tokens) < 2:
            raise SWFParseError("expected a job number and a submit time, got 1 field")
        values = {}
        for name, token in zip(names, tokens):
            try:
                number = float(token)
            except ValueError as exc:
                raise SWFParseError(f"field {name}: non-numeric token {token!r}") from exc
            if not math.isfinite(number):
                raise SWFParseError(f"field {name}: non-finite value {token!r}")
            values[name] = int(number) if name in cls._INT_FIELDS else number
        return cls(**values)

    @property
    def has_malleable_range(self) -> bool:
        """Whether any malleability column (fields 19–21) is set."""
        return self.min_procs > 0 or self.pref_procs > 0 or self.max_procs > 0

    def to_line(self) -> str:
        """Serialize to one canonical SWF line.

        The malleability columns are appended only when set, so rigid
        records — every record of a legacy archive log — round-trip to
        standard 18-field SWF byte-for-byte.
        """
        values = list(_standard_fields(self))
        for at in _FLOAT_AT:
            value = values[at]
            # An int prints as itself; integral floats stay compact, as
            # archive logs are.
            if type(value) is not int:
                values[at] = str(int(value)) if float(value).is_integer() else f"{value:.2f}"
        line = _LINE_FORMAT % tuple(values)
        if self.has_malleable_range:
            line += _RANGE_FORMAT % _range_fields(self)
        return line

    # ------------------------------------------------------------------
    CANCELLED_STATUS = 5

    def to_job(self) -> Job:
        """Convert to a simulation :class:`Job` (batch).

        Requested time falls back to run time when absent (common in
        archive logs that lack estimates), mirroring standard practice
        in backfill studies.  Status-5 (cancelled) jobs that never ran
        carry a ``cancel_at`` of ``submit + wait`` — the instant the
        log shows them leaving the queue.
        """
        return _job_from_fields(
            [getattr(self, name) for name in self.FIELD_NAMES + self.RANGE_FIELD_NAMES]
        )

    @classmethod
    def from_job(cls, job: Job) -> "SWFRecord":
        """Build a record from a job (post-run fields when available)."""
        wait = job.wait_time() if job.start_time is not None else UNKNOWN
        run = (
            job.finish_time - job.start_time
            if job.start_time is not None and job.finish_time is not None
            else job.actual if job.actual is not None else UNKNOWN
        )
        return cls(
            job_id=job.job_id,
            submit=job.submit,
            wait=wait,
            run_time=run,
            allocated_procs=job.num,
            requested_procs=job.num,
            requested_time=job.original_estimate,
            status=1,
            min_procs=job.min_procs if job.min_procs is not None else UNKNOWN,
            pref_procs=job.pref_procs if job.pref_procs is not None else UNKNOWN,
            max_procs=job.max_procs if job.max_procs is not None else UNKNOWN,
        )


#: Field count of a standard record, and with the malleable range.
_STD_FIELDS = len(SWFRecord.FIELD_NAMES)
_MAX_FIELDS = _STD_FIELDS + len(SWFRecord.RANGE_FIELD_NAMES)

#: ``to_line``'s readers of fields 1–18 and 19–21, the positions of the
#: float fields among 1–18, and the line's formats: ``%d`` truncates an
#: int field to an int, and a float field arrives as its text.
_standard_fields = operator.attrgetter(*SWFRecord.FIELD_NAMES)
_range_fields = operator.attrgetter(*SWFRecord.RANGE_FIELD_NAMES)
_FLOAT_AT = tuple(
    at for at, name in enumerate(SWFRecord.FIELD_NAMES) if name not in SWFRecord._INT_FIELDS
)
_LINE_FORMAT = " ".join(
    "%d" if name in SWFRecord._INT_FIELDS else "%s" for name in SWFRecord.FIELD_NAMES
)
_RANGE_FORMAT = " %d %d %d"


def _job_from_fields(fields: Sequence[float]) -> Job:
    """The rules of :meth:`SWFRecord.to_job`, on a record's numbers.

    ``fields`` holds SWF fields 1–18 in order, then any of the range
    fields 19–21.  Integer fields may be floats: the reader of
    :mod:`repro.workload.archive` passes a line's numbers straight from
    ``float()``.  Raises :class:`SWFParseError` for a record with no
    usable runtime/estimate or processor count.
    """
    run_time, requested_time = fields[3], fields[8]
    estimate = requested_time if requested_time > 0 else run_time
    cancelled_in_queue = (
        run_time <= 0 and int(fields[10]) == SWFRecord.CANCELLED_STATUS
    )
    job_id = int(fields[0])
    if estimate <= 0:
        if not cancelled_in_queue:
            raise SWFParseError(f"job {job_id}: no usable runtime/estimate")
        estimate = 1.0  # never ran; any positive placeholder works
    procs = int(fields[7])
    if procs <= 0:
        procs = int(fields[4])
        if procs <= 0:
            raise SWFParseError(f"job {job_id}: no usable processor request")
    estimate = float(estimate)
    submit = fields[1]
    bounds = [None, None, None]
    if len(fields) > _STD_FIELDS:
        for at, value in enumerate(fields[_STD_FIELDS:]):
            if value >= 1:
                bounds[at] = int(value)
    return Job(
        job_id,
        submit,
        procs,
        estimate,
        float(run_time) if run_time > 0 else estimate,
        cancel_at=submit + max(0.0, fields[2]) if cancelled_in_queue else None,
        min_procs=bounds[0],
        pref_procs=bounds[1],
        max_procs=bounds[2],
    )


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def _open_text(path: Union[str, Path], mode: str):
    """Open a trace file, transparently handling ``.gz`` archives.

    Parallel Workloads Archive logs ship gzip-compressed; both readers
    and writers accept ``*.gz`` paths directly.
    """
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def iter_swf(
    source: Union[str, Path, TextIO], *, strict: bool = True
) -> Iterator[SWFRecord]:
    """Yield records from an SWF file (``.gz`` ok) or open text stream.

    Under ``strict`` (the default) a malformed line raises
    :class:`SWFParseError` carrying the file name and line number;
    with ``strict=False`` the line is skipped with a
    :class:`RuntimeWarning` instead — for dirty archive logs where a
    few broken records should not discard the rest.
    """
    if isinstance(source, (str, Path)):
        with _open_text(source, "r") as fh:
            yield from iter_swf(fh, strict=strict)
        return
    for _, record in numbered_records(
        source,
        SWFRecord.parse,
        strict=strict,
        source=source_name(source),
        error_cls=SWFParseError,
    ):
        yield record


def read_swf(
    source: Union[str, Path, TextIO], *, strict: bool = True
) -> List[SWFRecord]:
    """Read an entire SWF file into a list of records."""
    return list(iter_swf(source, strict=strict))


def write_swf(
    records: Iterable[SWFRecord],
    target: Union[str, Path, TextIO],
    header: Iterable[str] = (),
) -> None:
    """Write records as SWF, with optional ``;``-prefixed header lines."""
    if isinstance(target, (str, Path)):
        with _open_text(target, "w") as fh:
            write_swf(records, fh, header=header)
        return
    for line in header:
        target.write(f"; {line}\n")
    for record in records:
        target.write(record.to_line() + "\n")


__all__ = [
    "SWFParseError",
    "SWFRecord",
    "UNKNOWN",
    "iter_swf",
    "read_swf",
    "write_swf",
    "_open_text",
]
