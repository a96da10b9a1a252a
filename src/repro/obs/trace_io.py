"""Versioned JSONL export of simulation traces.

A trace file is newline-delimited JSON: one **header** line naming the
schema plus free-form run metadata, then one line per
:class:`~repro.sim.trace.TraceRecord`::

    {"schema": "repro.trace/1", "meta": {"algorithm": "EASY", ...}}
    {"t": 0.0, "kind": "arrive", "data": {"job": 1, "num": 8}}
    {"t": 120.0, "kind": "start", "data": {"job": 1, "num": 8}}

Design rules:

- **Streaming both ways.** :class:`TraceWriter` appends records as the
  simulation produces them (the runner writes to it directly), so
  memory stays flat regardless of run length; :func:`iter_trace`
  yields records without materializing the file, decoding
  :data:`CHUNK_LINES` lines at a time.
- **Cheap per record.**  Lines are formatted by one module-level
  encoder, with no per-record encoder or ``TraceRecord`` on the sink
  path, and read back by one C parse per chunk of lines
  (docs/observability.md, "Trace cost").  The bytes are those of
  ``json.dumps`` per record.
- **Lossless round-trips.** Times are JSON numbers (``repr``-exact for
  Python floats), payload values are scalars/strings; NumPy scalars
  are converted via ``.item()`` on write.  ``write → read`` returns
  records that compare equal to the originals — enforced by
  ``tests/obs/test_trace_io.py``.
- **Versioned.** The header's ``schema`` field gates readers; an
  unknown version is a :class:`TraceReadError`, never a silent
  misparse.  Malformed lines carry file/line context, mirroring the
  workload parsers (docs/resilience.md); ``strict=False`` skips them.

>>> import io
>>> from repro.sim.trace import TraceRecord
>>> buf = io.StringIO()
>>> with TraceWriter(buf, meta={"algorithm": "EASY"}) as writer:
...     writer.write(TraceRecord(0.0, "arrive", {"job": 1, "num": 8}))
...     writer.write(TraceRecord(120.0, "start", {"job": 1, "num": 8}))
>>> writer.count
2
>>> _ = buf.seek(0)
>>> trace = read_trace(buf)
>>> trace.meta["algorithm"]
'EASY'
>>> trace.records[1] == TraceRecord(120.0, "start", {"job": 1, "num": 8})
True
"""

from __future__ import annotations

import io
import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple, Union

from repro.obs.spans import begin as _span_begin, end as _span_end
from repro.sim.trace import TraceFields, TraceRecord

#: Schema tag written to (and required of) every trace file header.
TRACE_SCHEMA = "repro.trace/1"

#: Buffered-writer drain threshold: records accumulate in memory and
#: land on the stream in ~this many bytes per OS write, cutting the
#: per-record I/O overhead of long traced runs (the bytes produced are
#: identical — buffering only batches them).
FLUSH_BYTES = 64 * 1024

#: Record lines the readers decode per batch: bounds their memory on
#: any file size while amortizing the per-batch work.
CHUNK_LINES = 4096

PathOrFile = Union[str, Path, TextIO]


class TraceReadError(ValueError):
    """A trace file failed to parse.

    Attributes:
        source: Name of the offending file (``"<stream>"`` for
            file-like inputs).
        line: 1-based line number, or None when the whole file is at
            fault (e.g. empty input).
    """

    def __init__(self, message: str, *, source: str = "<stream>", line: Optional[int] = None) -> None:
        self.source = source
        self.line = line
        location = source if line is None else f"{source}:{line}"
        super().__init__(f"{location}: {message}")


def _jsonable(value: Any) -> Any:
    """Coerce payload values to JSON-safe types (NumPy scalars → Python)."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bool)):
        return item()
    raise TypeError(f"trace payload value {value!r} is not JSON-serializable")


#: The one encoder every record line goes through, built once rather
#: than per ``json.dumps`` call: the C accelerator (the pure-Python
#: encoder where the interpreter lacks it) with the header's separators
#: and ``default``, so each value encodes to the bytes ``json.dumps``
#: gives it inside the whole record.  No circular-reference markers:
#: payloads are flat scalars.
_encode_chunks = (
    c_make_encoder(
        None, _jsonable, encode_basestring_ascii, None, ":", ",", False, False, True
    )
    if c_make_encoder is not None
    else json.JSONEncoder(separators=(",", ":"), default=_jsonable).iterencode
)

_float_repr = float.__repr__
_isfinite = math.isfinite


class TraceWriter:
    """Streaming JSONL writer for trace records.

    Opens the target (path or text stream), writes the header line
    immediately, then one line per :meth:`write`.  Usable as a context
    manager; paths are closed on exit, caller-owned streams are not.

    Args:
        target: Output path or writable text stream.
        meta: Free-form run metadata for the header (algorithm,
            machine size, package version...).  Must be JSON-safe.
    """

    def __init__(self, target: PathOrFile, meta: Optional[Dict[str, Any]] = None) -> None:
        if isinstance(target, (str, Path)):
            Path(target).parent.mkdir(parents=True, exist_ok=True)
            self._fh: TextIO = open(target, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = target
            self._owns_fh = False
        self.count = 0
        self._buf: List[str] = []
        self._buf_bytes = 0
        self._kind_prefix: Dict[str, str] = {}
        header = {"schema": TRACE_SCHEMA, "meta": dict(meta or {})}
        self._fh.write(json.dumps(header, separators=(",", ":"), default=_jsonable) + "\n")

    @classmethod
    def resume(cls, target: Union[str, Path], *, offset: int, count: int) -> "TraceWriter":
        """Reopen an interrupted trace file for journaled append-resume.

        ``offset``/``count`` come from a checkpoint's trace journal
        (:mod:`repro.durable.checkpoint`): the file is truncated back
        to ``offset`` — discarding any records written after the
        checkpoint, including a torn final line from a killed writer —
        and appending continues from there.  No header is rewritten;
        the bytes up to ``offset`` are the authoritative prefix, so a
        resumed run's finished file is byte-identical to an
        uninterrupted one.

        Raises:
            FileNotFoundError: when the trace file is gone.
            ValueError: when the file is shorter than ``offset`` (it
                cannot be the file the journal describes).
        """
        path = Path(target)
        size = path.stat().st_size
        if size < offset:
            raise ValueError(
                f"{path}: {size} bytes on disk but the checkpoint journal "
                f"recorded {offset}; refusing to resume a different file"
            )
        raw = open(path, "r+b")
        try:
            raw.truncate(offset)
            raw.seek(0, os.SEEK_END)
        except BaseException:
            raw.close()
            raise
        writer = cls.__new__(cls)
        writer._fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        writer._owns_fh = True
        writer.count = count
        writer._buf = []
        writer._buf_bytes = 0
        writer._kind_prefix = {}
        return writer

    def write(self, record: Union[TraceRecord, TraceFields]) -> None:
        """Append one record as a JSONL line.

        ``record`` is a :class:`TraceRecord` or its ``(time, kind,
        data)`` fields as a plain tuple, the form the runner writes;
        both give the same line, byte for byte the
        ``json.dumps({"t": ..., "kind": ..., "data": ...},
        separators=(",", ":"))`` of the record.

        Lines accumulate in an in-process buffer and hit the stream in
        ~:data:`FLUSH_BYTES` batches; :meth:`sync` and :meth:`close`
        drain it, so durability points and finished files see every
        record.  The bytes written are identical to unbuffered output.
        """
        time, kind, data = record
        # A finite float is what the encoder would render with repr.
        if type(time) is float and _isfinite(time):
            line = '{"t":' + _float_repr(time)
        else:
            line = '{"t":' + "".join(_encode_chunks(time, 0))
        # ``,"kind":<kind>,"data":``, the fixed middle of the line, is
        # encoded once per string kind: kinds are a small vocabulary.
        prefix = self._kind_prefix.get(kind) if type(kind) is str else None
        if prefix is None:
            prefix = ',"kind":' + "".join(_encode_chunks(kind, 0)) + ',"data":'
            if type(kind) is str:
                self._kind_prefix[kind] = prefix
        line += prefix + "".join(_encode_chunks(data, 0)) + "}\n"
        self._buf.append(line)
        self._buf_bytes += len(line)
        if self._buf_bytes >= FLUSH_BYTES:
            self._drain()
        self.count += 1

    def _drain(self) -> None:
        """Move buffered lines to the underlying stream (one write)."""
        if self._buf:
            self._fh.write("".join(self._buf))
            self._buf.clear()
            self._buf_bytes = 0

    def sync(self) -> int:
        """Flush to stable storage; returns the durable byte length.

        The returned offset is the append position a checkpoint can
        journal: the writer only ever appends, so file size and write
        position coincide.  Only meaningful for path-backed writers.
        """
        token = _span_begin("trace_flush")
        try:
            self._drain()
            self._fh.flush()
            if not self._owns_fh:
                raise ValueError("sync() requires a path-backed TraceWriter")
            fd = self._fh.fileno()
            os.fsync(fd)
            return os.fstat(fd).st_size
        finally:
            _span_end(token)

    def close(self) -> None:
        """Flush and (for path targets) close the underlying file."""
        self._drain()
        if self._owns_fh:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace(
    records: Iterable[TraceRecord],
    target: PathOrFile,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a full trace in one call; returns the record count."""
    with TraceWriter(target, meta=meta) as writer:
        for record in records:
            writer.write(record)
        return writer.count


@dataclass(frozen=True)
class TraceFile:
    """A fully parsed trace: header metadata plus all records.

    ``truncated`` is True when the file ended in a torn final line (a
    crashed writer); every complete record before it was recovered.
    """

    meta: Dict[str, Any]
    records: List[TraceRecord] = field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.records)


def _parse_header(line: str, source: str) -> Dict[str, Any]:
    if not line:
        raise TraceReadError("empty file (no header)", source=source)
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceReadError(f"malformed header: {exc}", source=source, line=1) from None
    if not isinstance(header, dict) or "schema" not in header:
        raise TraceReadError(
            "first line is not a trace header (missing 'schema')", source=source, line=1
        )
    if header["schema"] != TRACE_SCHEMA:
        raise TraceReadError(
            f"unsupported trace schema {header['schema']!r} "
            f"(this reader understands {TRACE_SCHEMA!r})",
            source=source,
            line=1,
        )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceReadError("header 'meta' must be an object", source=source, line=1)
    return meta


def _parse_record(line: str, source: str, lineno: int) -> TraceRecord:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceReadError(f"malformed record: {exc}", source=source, line=lineno) from None
    if not isinstance(payload, dict):
        raise TraceReadError("record line is not an object", source=source, line=lineno)
    try:
        time = payload["t"]
        kind = payload["kind"]
    except KeyError as exc:
        raise TraceReadError(f"record missing field {exc}", source=source, line=lineno) from None
    data = payload.get("data", {})
    if (
        not isinstance(time, (int, float))
        or isinstance(time, bool)
        or not isinstance(kind, str)
        or not isinstance(data, dict)
    ):
        raise TraceReadError(
            "record fields have wrong types (want t: number, kind: string, data: object)",
            source=source,
            line=lineno,
        )
    return TraceRecord(time=float(time), kind=kind, data=data)


def _warn_truncated(source: str, lineno: int) -> None:
    warnings.warn(
        f"{source}:{lineno}: truncated final line (crashed writer?); "
        "recovered every complete record before it",
        RuntimeWarning,
        stacklevel=4,
    )


#: The fields of a decoded record line, one column at a time.
_time_of = itemgetter("t")
_kind_of = itemgetter("kind")
_data_of = itemgetter("data")
#: ``(time, kind, data)`` -> :class:`TraceRecord`, without the Python
#: ``__new__`` of the named tuple.
_as_record = partial(tuple.__new__, TraceRecord)


def _decode_joined(chunk: List[str]) -> Optional[Iterable[TraceFields]]:
    """The chunk's ``(time, kind, data)`` fields from one parse of its joined lines.

    The lines are parsed as the elements of one JSON array.  Every line
    but the file's last ends in its one newline, which no JSON string
    can hold, so each joining comma follows whitespace.  The parse
    gives each line's record exactly when:

    - no line holds a ``[``, so every value below the array is an
      object;
    - every line after the first starts with ``{``: a comma inside an
      object must be followed by a key, so each joining comma (after a
      newline, before a ``{``) separates array elements;
    - the array has one element per line, so no line holds two;
    - every element has a float ``t``, a string ``kind`` and an object
      ``data``, which :func:`_parse_record` would return unchanged.

    Writer output meets all four.  For any other chunk the result is
    None, and the chunk goes through the per-line path.
    """
    text = "[" + ",".join(chunk) + "]"
    if text.count("[") != 1 or text.count("\n,{") != len(chunk) - 1:
        return None
    try:
        objects = json.loads(text)
        times = list(map(_time_of, objects))
        kinds = list(map(_kind_of, objects))
        datas = list(map(_data_of, objects))
    except (ValueError, KeyError, TypeError, RecursionError):
        return None
    if (
        len(objects) != len(chunk)
        or set(map(type, times)) != {float}
        or set(map(type, kinds)) != {str}
        or set(map(type, datas)) != {dict}
    ):
        return None
    return zip(times, kinds, datas)


def _decode_chunks(
    lines: Iterator[str], source: str, strict: bool
) -> Iterator[Tuple[Iterable[TraceFields], bool]]:
    """Decode the record lines after the header, :data:`CHUNK_LINES` at a time.

    Yields ``(fields, torn)`` per chunk: the ``(time, kind, data)``
    tuples of its records, and whether the file ended in a torn line
    (only ever True on the last chunk).  A chunk of lines the writer
    could have produced is decoded by one C parse
    (:func:`_decode_joined`).  Any other chunk goes line by line through
    :func:`_parse_record`, so every line behaves, and fails, as when
    every line went through it.
    """
    lineno = 2
    while True:
        chunk = list(islice(lines, CHUNK_LINES))
        if not chunk:
            return
        fields = _decode_joined(chunk)
        if fields is None:
            records: List[TraceRecord] = []
            for offset, line in enumerate(chunk):
                if not line.strip():
                    continue
                try:
                    records.append(_parse_record(line, source, lineno + offset))
                except TraceReadError:
                    if not line.endswith("\n"):
                        # Only the file's very last line can lack its
                        # newline: a torn write, not corruption.
                        _warn_truncated(source, lineno + offset)
                        yield records, True
                        return
                    if strict:
                        # Hand over the records before the bad line
                        # first, as a line-at-a-time reader would have.
                        yield records, False
                        raise
            fields = records
        yield fields, False
        lineno += len(chunk)


@contextmanager
def _opened(source: PathOrFile) -> Iterator[Tuple[TextIO, str, Dict[str, Any]]]:
    """``source`` open for reading after its header: the stream, its
    name and the header meta.  A path is opened here and closed on exit."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield fh, str(source), _parse_header(fh.readline(), str(source))
        return
    name = str(getattr(source, "name", "<stream>"))
    yield source, name, _parse_header(source.readline(), name)


def _field_chunks(source: PathOrFile, strict: bool) -> Iterator[Iterable[TraceFields]]:
    """Validate the header, then yield the record fields chunk by chunk."""
    with _opened(source) as (fh, name, _):
        for fields, _torn in _decode_chunks(iter(fh), name, strict):
            yield fields


def _iter_fields(source: PathOrFile, *, strict: bool = True) -> Iterator[TraceFields]:
    """:func:`iter_trace` as plain ``(time, kind, data)`` tuples.

    The trace oracle's reader: wrapping each tuple in a
    :class:`TraceRecord` costs ~0.3 µs per record.
    """
    return chain.from_iterable(_field_chunks(source, strict))


def iter_trace(source: PathOrFile, *, strict: bool = True) -> Iterator[TraceRecord]:
    """Stream records from a trace file after validating its header.

    The header is read when the first record is asked for.  A torn
    **final** line — one that fails to parse *and* lacks its
    terminating newline, the signature a killed writer leaves — is
    never an error: every complete record before it is yielded and a
    ``RuntimeWarning`` reports the truncation (docs/resilience.md).

    Args:
        source: Input path or readable text stream.
        strict: When True (default), a malformed *interior* record
            raises :class:`TraceReadError` with file/line context;
            when False, malformed record lines are skipped (a bad
            header always raises — without it nothing is trustworthy).
    """
    return map(_as_record, _iter_fields(source, strict=strict))


def read_meta(source: PathOrFile) -> Dict[str, Any]:
    """Parse and return only the header metadata of a trace file."""
    with _opened(source) as (_, _, meta):
        return meta


def read_trace(source: PathOrFile, *, strict: bool = True) -> TraceFile:
    """Parse a whole trace file into a :class:`TraceFile`."""
    records: List[TraceRecord] = []
    truncated = False
    with _opened(source) as (fh, name, meta):
        for fields, truncated in _decode_chunks(iter(fh), name, strict):
            records.extend(map(_as_record, fields))
    return TraceFile(meta=meta, records=records, truncated=truncated)


__all__ = [
    "TRACE_SCHEMA",
    "TraceFile",
    "TraceReadError",
    "TraceWriter",
    "iter_trace",
    "read_meta",
    "read_trace",
    "write_trace",
]
