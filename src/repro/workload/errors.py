"""Typed workload-format errors with source context.

Malformed trace files used to surface as bare ``ValueError`` /
``IndexError`` with no hint of *where* the bad record lives — useless
against a 100k-line archive log.  :class:`WorkloadFormatError` is the
common base for every trace-parsing failure (``SWFParseError`` and
``CWFParseError`` subclass it) and carries the source name and
1-based line number, rendered into the message.

Parsers accept ``strict=False`` to *skip* malformed records with a
:class:`RuntimeWarning` instead of raising — the right mode for
dirty real-world archive logs where a handful of broken lines should
not discard the other hundred thousand.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterable, Iterator, Optional, Tuple, TypeVar

R = TypeVar("R")


class WorkloadFormatError(ValueError):
    """A workload trace record could not be parsed or converted.

    Attributes:
        source: Name of the offending file/stream (None when unknown).
        line: 1-based line number of the offending record (None when
            unknown).
    """

    def __init__(
        self,
        message: str,
        *,
        source: Optional[str] = None,
        line: Optional[int] = None,
    ) -> None:
        self.source = source
        self.line = line
        location = ""
        if source is not None:
            location = f"{source}:"
        if line is not None:
            location += f"{line}:"
        super().__init__(f"{location} {message}" if location else message)


def numbered_records(
    lines: Iterable[str],
    parse: Callable[[str], R],
    *,
    strict: bool = True,
    source: Optional[str] = None,
    error_cls: type = WorkloadFormatError,
    start: int = 1,
) -> Iterator[Tuple[int, R]]:
    """Parse trace lines into ``(line_number, record)`` pairs.

    Blank lines and ``;`` comments are skipped silently.  A record
    that fails to parse (any :class:`ValueError`, which covers the
    format-specific parse errors) is re-raised as ``error_cls`` with
    file/line context under ``strict``, or skipped with a
    :class:`RuntimeWarning` otherwise.  ``start`` is the number of the
    first line.
    """
    for lineno, raw in enumerate(lines, start=start):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        try:
            record = parse(line)
        except ValueError as exc:
            reject(error_cls(str(exc), source=source, line=lineno), strict)
            continue
        yield lineno, record


def reject(error: WorkloadFormatError, strict: bool) -> None:
    """Raise ``error`` under ``strict``; otherwise warn that its record is skipped.

    Raised inside an ``except`` block, ``error`` chains the exception
    that caused it.
    """
    if strict:
        raise error
    warnings.warn(f"skipping malformed record: {error}", RuntimeWarning, stacklevel=3)


def source_name(stream: object) -> Optional[str]:
    """Best-effort display name of an open text stream."""
    name = getattr(stream, "name", None)
    return str(name) if isinstance(name, (str, bytes)) else None


__all__ = ["WorkloadFormatError", "numbered_records", "reject", "source_name"]
