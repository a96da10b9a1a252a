"""Cloud Workload Format (CWF) — the paper's SWF extension (Figure 4).

CWF appends three fields to the 18 SWF fields:

====  ==========================  =======================================
 #    Name                        Notes
====  ==========================  =======================================
 19   requested start time        dedicated/interactive jobs; −1 batch
 20   request type                S / ET / RT / EP / RP
 21   extension/reduction amount  seconds (ET/RT) or processors (EP/RP)
====  ==========================  =======================================

A CWF file interleaves submissions (type ``S``) with Elastic Control
Commands referencing earlier job ids: an ECC line reuses the job id and
carries the command in fields 20–21 with the *issue time* in field 2.
``parse_cwf_workload`` splits a file into jobs and ECC lists ready for
simulation.

Optional malleability extension (this repo; docs/malleability.md):
fields 22–24 on a submission line carry the job's ``min/pref/max``
processor range, mirroring SWF's optional fields 19–21.  Absent (or
``-1``) means rigid; legacy 21-field files parse unchanged and rigid
records serialize without the extra columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, TextIO, Tuple, Union

from repro.workload.ecc import ECC, ECCKind
from repro.workload.errors import numbered_records, reject, source_name
from repro.workload.job import Job, JobKind
from repro.workload.swf import SWFParseError, SWFRecord, UNKNOWN, _open_text


class CWFParseError(SWFParseError):
    """Raised when a line cannot be parsed as a CWF record."""


@dataclass
class CWFRecord(SWFRecord):
    """One CWF line: SWF fields plus the elasticity extension."""

    requested_start: float = UNKNOWN
    request_type: ECCKind = ECCKind.SUBMIT
    amount: float = UNKNOWN

    EXTENDED_FIELD_COUNT = 21
    #: With the optional malleability range (fields 22–24) appended.
    MALLEABLE_FIELD_COUNT = 24

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, line: str) -> "CWFRecord":
        """Parse a CWF line (21 fields, plus an optional malleability
        range in fields 22–24; shorter lines padded like SWF).

        A non-numeric or non-finite value in the 18 SWF fields or the
        range raises, as in :meth:`SWFRecord.parse`."""
        tokens = line.split()
        if not tokens:
            raise CWFParseError("empty line")
        if len(tokens) > cls.MALLEABLE_FIELD_COUNT:
            raise CWFParseError(
                f"expected at most {cls.MALLEABLE_FIELD_COUNT} fields, got {len(tokens)}"
            )
        base_tokens = tokens[: len(SWFRecord.FIELD_NAMES)]
        extension = tokens[len(SWFRecord.FIELD_NAMES) : cls.EXTENDED_FIELD_COUNT]
        range_tokens = tokens[cls.EXTENDED_FIELD_COUNT :]
        base = SWFRecord.parse(" ".join(base_tokens))
        record = cls(**{name: getattr(base, name) for name in SWFRecord.FIELD_NAMES})
        if len(extension) >= 1:
            try:
                record.requested_start = float(extension[0])
            except ValueError as exc:
                raise CWFParseError(
                    f"field requested_start: non-numeric {extension[0]!r}"
                ) from exc
        if len(extension) >= 2:
            try:
                record.request_type = ECCKind(extension[1].upper())
            except ValueError as exc:
                raise CWFParseError(
                    f"field request_type: unknown code {extension[1]!r}"
                ) from exc
        if len(extension) >= 3:
            try:
                record.amount = float(extension[2])
            except ValueError as exc:
                raise CWFParseError(f"field amount: non-numeric {extension[2]!r}") from exc
        for name, token in zip(cls.RANGE_FIELD_NAMES, range_tokens):
            try:
                number = float(token)
            except ValueError as exc:
                raise CWFParseError(f"field {name}: non-numeric token {token!r}") from exc
            if not math.isfinite(number):
                raise CWFParseError(f"field {name}: non-finite value {token!r}")
            setattr(record, name, int(number))
        return record

    def to_line(self) -> str:
        """Serialize to one canonical CWF line.

        The malleability columns (fields 22–24) are appended only when
        set, so rigid records keep the 21-field Figure 4 layout.
        """
        start = (
            str(int(self.requested_start))
            if float(self.requested_start).is_integer()
            else f"{self.requested_start:.2f}"
        )
        amount = (
            str(int(self.amount))
            if float(self.amount).is_integer()
            else f"{self.amount:.2f}"
        )
        # SWFRecord.to_line would append the range straight after field
        # 18; CWF puts it after the elasticity extension instead.
        base = SWFRecord(
            **{name: getattr(self, name) for name in SWFRecord.FIELD_NAMES}
        ).to_line()
        line = f"{base} {start} {self.request_type.value} {amount}"
        if self.has_malleable_range:
            line += " " + " ".join(
                str(int(getattr(self, name))) for name in self.RANGE_FIELD_NAMES
            )
        return line

    # ------------------------------------------------------------------
    @property
    def is_submission(self) -> bool:
        """Whether this line introduces a new job."""
        return self.request_type is ECCKind.SUBMIT

    def to_job(self) -> Job:
        """Convert a submission record to a :class:`Job`.

        Raises:
            CWFParseError: when called on an ECC record.
        """
        if not self.is_submission:
            raise CWFParseError(
                f"record for job {self.job_id} is an ECC ({self.request_type.value}), "
                "not a submission"
            )
        base = super().to_job()
        if self.requested_start is not None and self.requested_start >= 0:
            return Job(
                job_id=base.job_id,
                submit=base.submit,
                num=base.num,
                estimate=base.estimate,
                actual=base.actual,
                kind=JobKind.DEDICATED,
                requested_start=float(self.requested_start),
                cancel_at=base.cancel_at,
                min_procs=base.min_procs,
                pref_procs=base.pref_procs,
                max_procs=base.max_procs,
            )
        return base

    def to_ecc(self) -> ECC:
        """Convert an ECC record to an :class:`ECC`.

        Raises:
            CWFParseError: when called on a submission record or when
                the amount is missing/invalid.
        """
        if self.is_submission:
            raise CWFParseError(f"record for job {self.job_id} is a submission, not an ECC")
        if self.amount <= 0:
            raise CWFParseError(
                f"ECC for job {self.job_id}: missing or non-positive amount {self.amount}"
            )
        return ECC(
            job_id=self.job_id,
            issue_time=self.submit,
            kind=self.request_type,
            amount=self.amount,
        )

    @classmethod
    def from_job(cls, job: Job) -> "CWFRecord":
        """Build a submission record from a job."""
        base = SWFRecord.from_job(job)
        record = cls(**{name: getattr(base, name) for name in SWFRecord.FIELD_NAMES})
        record.requested_start = (
            job.requested_start if job.requested_start is not None else UNKNOWN
        )
        record.request_type = ECCKind.SUBMIT
        record.amount = UNKNOWN
        record.min_procs = base.min_procs
        record.pref_procs = base.pref_procs
        record.max_procs = base.max_procs
        return record

    @classmethod
    def from_ecc(cls, ecc: ECC) -> "CWFRecord":
        """Build an ECC record referencing a previously submitted job."""
        record = cls(job_id=ecc.job_id, submit=ecc.issue_time)
        record.request_type = ecc.kind
        record.amount = ecc.amount
        return record


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def iter_cwf(
    source: Union[str, Path, TextIO], *, strict: bool = True
) -> Iterator[CWFRecord]:
    """Yield CWF records from a file or open text stream.

    ``strict`` semantics as in :func:`repro.workload.swf.iter_swf`:
    malformed lines raise :class:`CWFParseError` with file/line
    context, or are skipped with a warning under ``strict=False``.
    """
    if isinstance(source, (str, Path)):
        with _open_text(source, "r") as fh:
            yield from iter_cwf(fh, strict=strict)
        return
    for _, record in numbered_records(
        source,
        CWFRecord.parse,
        strict=strict,
        source=source_name(source),
        error_cls=CWFParseError,
    ):
        yield record


def read_cwf(
    source: Union[str, Path, TextIO], *, strict: bool = True
) -> List[CWFRecord]:
    """Read an entire CWF file into a list of records."""
    return list(iter_cwf(source, strict=strict))


def write_cwf(
    records: Iterable[CWFRecord],
    target: Union[str, Path, TextIO],
    header: Iterable[str] = (),
) -> None:
    """Write records as CWF with optional ``;``-prefixed header lines."""
    if isinstance(target, (str, Path)):
        with _open_text(target, "w") as fh:
            write_cwf(records, fh, header=header)
        return
    for line in header:
        target.write(f"; {line}\n")
    for record in records:
        target.write(record.to_line() + "\n")


def _cwf_items(
    source: Union[str, Path, TextIO], *, strict: bool = True
) -> Iterator[Tuple[int, Union[Job, ECC]]]:
    """Yield ``(line_number, item)`` for each submission and ECC.

    The one record-to-item path behind :func:`parse_cwf_workload` and
    :func:`~repro.workload.streaming.stream_cwf_workload`; the checks
    and error reporting are those :func:`parse_cwf_workload` documents.
    """
    if isinstance(source, (str, Path)):
        with _open_text(source, "r") as fh:
            yield from _cwf_items(fh, strict=strict)
        return
    name = source_name(source)
    seen: set[int] = set()
    for lineno, record in numbered_records(
        source, CWFRecord.parse, strict=strict, source=name, error_cls=CWFParseError
    ):
        try:
            if record.is_submission:
                item: Union[Job, ECC] = record.to_job()
                if item.job_id in seen:
                    raise ValueError(f"duplicate submission for job {item.job_id}")
                seen.add(item.job_id)
            else:
                if record.job_id not in seen:
                    raise ValueError(
                        f"ECC references unknown job {record.job_id} "
                        "(submissions must precede their ECCs)"
                    )
                item = record.to_ecc()
        except ValueError as exc:
            reject(CWFParseError(str(exc), source=name, line=lineno), strict)
            continue
        yield lineno, item


def parse_cwf_workload(
    source: Union[str, Path, TextIO], *, strict: bool = True
) -> Tuple[List[Job], List[ECC]]:
    """Split a CWF file into submissions and elastic control commands.

    ECC lines must reference a previously seen job id; dangling
    references raise :class:`CWFParseError` because they can never be
    applied.  Every failure — parse errors, semantic violations, and
    stray :class:`ValueError` from the ``Job``/``ECC`` constructors
    (e.g. a dedicated start before its submit) — is reported as a
    :class:`CWFParseError` with file/line context, or skipped with a
    :class:`RuntimeWarning` under ``strict=False``.
    """
    jobs: List[Job] = []
    eccs: List[ECC] = []
    for _, item in _cwf_items(source, strict=strict):
        if isinstance(item, Job):
            jobs.append(item)
        else:
            eccs.append(item)
    return jobs, eccs


__all__ = [
    "CWFParseError",
    "CWFRecord",
    "iter_cwf",
    "parse_cwf_workload",
    "read_cwf",
    "write_cwf",
]
