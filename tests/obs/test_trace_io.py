"""Trace JSONL round-trip guarantees and error reporting."""

from __future__ import annotations

import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import trace_io
from repro.obs.trace_io import (
    TRACE_SCHEMA,
    TraceReadError,
    TraceWriter,
    _jsonable,
    _parse_record,
    iter_trace,
    read_meta,
    read_trace,
    write_trace,
)
from repro.sim.trace import TraceRecord


def _records():
    return [
        TraceRecord(time=0.0, kind="arrive", data={"job": 1, "num": 32}),
        TraceRecord(time=7.25, kind="start", data={"job": 1, "num": 32}),
        TraceRecord(time=1e9 + 0.125, kind="finish", data={"job": 1, "num": 32}),
    ]


class TestRoundTrip:
    def test_records_and_meta_survive(self, tmp_path):
        path = tmp_path / "run.jsonl"
        meta = {"algorithm": "EASY", "machine_size": 320}
        n = write_trace(_records(), path, meta=meta)
        assert n == 3
        trace = read_trace(path)
        assert trace.meta == meta
        assert trace.records == _records()

    def test_float_times_roundtrip_exactly(self, tmp_path):
        # repr-level float fidelity: JSON round-trips IEEE doubles.
        times = [0.1, 1 / 3, 2**53 - 1.0, 6.02e23, 5e-324]
        records = [
            TraceRecord(time=t, kind="tick", data={"value": t}) for t in times
        ]
        path = tmp_path / "floats.jsonl"
        write_trace(records, path)
        back = read_trace(path).records
        assert [r.time for r in back] == times
        assert [r.data["value"] for r in back] == times

    def test_numpy_scalars_coerced(self, tmp_path):
        records = [
            TraceRecord(
                time=np.float64(3.5),
                kind="start",
                data={"job": np.int64(9), "util": np.float32(0.5)},
            )
        ]
        path = tmp_path / "np.jsonl"
        write_trace(records, path)
        (record,) = read_trace(path).records
        assert record.time == 3.5
        assert record.data["job"] == 9
        # Every line is plain JSON — no numpy repr leaked through.
        lines = path.read_text().splitlines()
        for line in lines:
            json.loads(line)

    def test_stream_target_and_streaming_reader(self):
        buffer = io.StringIO()
        with TraceWriter(buffer, meta={"k": 1}) as writer:
            for record in _records():
                writer.write(record)
            assert writer.count == 3
        buffer.seek(0)
        assert read_meta(buffer) == {"k": 1}
        buffer.seek(0)
        assert list(iter_trace(buffer)) == _records()

    def test_header_written_even_without_records(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_trace([], path, meta={"algorithm": "LOS"})
        trace = read_trace(path)
        assert trace.meta == {"algorithm": "LOS"}
        assert trace.records == []

    def test_writer_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.jsonl"
        write_trace(_records(), path)
        assert len(read_trace(path).records) == 3


class TestValidation:
    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":0,"kind":"arrive","data":{}}\n')
        with pytest.raises(TraceReadError, match="header"):
            read_trace(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema":"other/9","meta":{}}\n')
        with pytest.raises(TraceReadError, match="schema"):
            read_trace(path)

    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"schema": TRACE_SCHEMA, "meta": {}})
            + '\n{"t":0,"kind":"x","data":{}}\nnot json\n'
        )
        with pytest.raises(TraceReadError, match=r"bad\.jsonl:3: malformed record"):
            read_trace(path)

    def test_non_strict_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"schema": TRACE_SCHEMA, "meta": {}})
            + '\n{"t":0,"kind":"x","data":{}}\nnot json\n'
            + '{"t":1,"kind":"y","data":{}}\n'
        )
        records = read_trace(path, strict=False).records
        assert [r.kind for r in records] == ["x", "y"]

    def test_unserializable_payload_raises(self, tmp_path):
        record = TraceRecord(time=0.0, kind="bad", data={"obj": object()})
        with pytest.raises(TypeError, match="not JSON-serializable"):
            write_trace([record], tmp_path / "x.jsonl")


class TestTornTail:
    """A killed writer leaves a final line without its newline.

    That is recoverable damage, not corruption: every complete record
    is returned, a RuntimeWarning names the truncation, and the
    ``truncated`` flag is set (docs/resilience.md).
    """

    def _torn(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        write_trace(_records(), path, meta={"algorithm": "LOS"})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"t": 123.0, "kind": "sta')  # SIGKILL mid-append
        return path

    def test_read_trace_recovers_complete_records(self, tmp_path):
        path = self._torn(tmp_path)
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            trace = read_trace(path)
        assert trace.records == _records()
        assert trace.truncated is True
        assert trace.meta == {"algorithm": "LOS"}

    def test_iter_trace_recovers_complete_records(self, tmp_path):
        path = self._torn(tmp_path)
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            records = list(iter_trace(path))
        assert records == _records()

    def test_clean_file_is_not_flagged(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        write_trace(_records(), path)
        assert read_trace(path).truncated is False

    def test_interior_corruption_still_raises(self, tmp_path):
        # Only the file's *last* line may lack its newline; a malformed
        # line followed by further records is real corruption and keeps
        # its strict-mode error with file/line context.
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"schema": TRACE_SCHEMA, "meta": {}})
            + '\n{"t":0,"kind":"x","data":{}}\n{"t": 1, "ki\n'
            + '{"t":2,"kind":"y","data":{}}\n'
        )
        with pytest.raises(TraceReadError, match=r"bad\.jsonl:3: malformed record"):
            read_trace(path)

    def test_torn_tail_in_non_strict_mode(self, tmp_path):
        path = self._torn(tmp_path)
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            trace = read_trace(path, strict=False)
        assert trace.records == _records()
        assert trace.truncated is True


# ----------------------------------------------------------------------
# The codec against its reference: json.dumps per record on the way
# out, the per-line parser on the way back in.
# ----------------------------------------------------------------------
def _reference_line(time, kind, data) -> str:
    return json.dumps(
        {"t": time, "kind": kind, "data": data}, separators=(",", ":"), default=_jsonable
    ) + "\n"


def _typed(records):
    """``records`` with the types of each record and of its fields.

    Record equality alone would let an int time pass for a float one.
    """
    return [(type(r), *map(type, r), *r) for r in records]


def _reference_read(text: str, strict: bool):
    """Read ``text`` one line at a time through ``_parse_record``.

    Returns ``("ok", records, truncated, warned)`` or
    ``("error", message, line)``.
    """
    lines = io.StringIO(text)
    lines.readline()
    records = []
    truncated = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            try:
                records.append(_parse_record(line, "<stream>", lineno))
            except TraceReadError as exc:
                if not line.endswith("\n"):
                    warnings.warn(f"<stream>:{lineno}: truncated final line", RuntimeWarning)
                    truncated = True
                    break
                if strict:
                    return ("error", str(exc), exc.line)
    warned = [str(w.message).split(":")[1] for w in caught]
    return ("ok", _typed(records), truncated, warned)


def _read(text: str, strict: bool):
    """:func:`read_trace` on ``text`` in the shape of :func:`_reference_read`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            trace = read_trace(io.StringIO(text), strict=strict)
        except TraceReadError as exc:
            return ("error", str(exc), exc.line)
    warned = [str(w.message).split(":")[1] for w in caught]
    return ("ok", _typed(trace.records), trace.truncated, warned)


def _iter(text: str, strict: bool):
    """The records :func:`iter_trace` yields before it stops or raises."""
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for record in iter_trace(io.StringIO(text), strict=strict):
                records.append(record)
        except TraceReadError as exc:
            return _typed(records), exc.line
    return _typed(records), None


_numpy_scalars = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
)
_scalars = st.one_of(
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    _numpy_scalars,
)
_times = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e300, 2.0**53]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
)
_kinds = st.one_of(
    st.sampled_from(["arrive", "start", "finish", "ecc", 'quo"te', "back\\slash", "ünï", "日本"]),
    st.text(max_size=6),
)
_payloads = st.dictionaries(st.text(max_size=6), _scalars, max_size=5)


class TestCodecMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(st.tuples(_times, _kinds, _payloads), max_size=8))
    def test_written_bytes_equal_json_dumps(self, records):
        expected = "".join(_reference_line(*fields) for fields in records)
        for as_record in (False, True):
            buffer = io.StringIO()
            with TraceWriter(buffer, meta={"k": 1}) as writer:
                for fields in records:
                    writer.write(TraceRecord(*fields) if as_record else fields)
            header, _, body = buffer.getvalue().partition("\n")
            assert json.loads(header) == {"schema": TRACE_SCHEMA, "meta": {"k": 1}}
            assert body == expected

    def test_non_finite_times_use_json_spelling(self):
        buffer = io.StringIO()
        with TraceWriter(buffer) as writer:
            for time in (math.inf, -math.inf, math.nan):
                writer.write((time, "tick", {}))
        body = buffer.getvalue().splitlines()[1:]
        assert [line.split(",")[0] for line in body] == [
            '{"t":Infinity', '{"t":-Infinity', '{"t":NaN',
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.one_of(st.floats(allow_nan=False), st.integers(-(2**60), 2**60)),
                _kinds,
                st.dictionaries(
                    st.text(max_size=4),
                    st.one_of(
                        st.integers(), st.floats(allow_nan=False), st.text(max_size=4),
                        st.booleans(), st.none(),
                    ),
                    max_size=3,
                ),
            ),
            max_size=12,
        ),
        odd_lines=st.lists(
            st.tuples(
                st.integers(0, 12),
                st.sampled_from([
                    "\n",
                    "   \n",
                    "not json\n",
                    '{"t": 1, "ki\n',
                    '{"t":"x","kind":"k","data":{}}\n',
                    '{"t":true,"kind":"k","data":{}}\n',
                    '{"t":1.0,"kind":7,"data":{}}\n',
                    '{"t":1.0,"kind":"k","data":[]}\n',
                    '{"t":1.0,"kind":"k"}\n',
                    '{"kind":"k","data":{}}\n',
                    "[1, 2]\n",
                    '{"t":1.0,"kind":"k","data":{}} extra\n',
                    '{"t":1.0,"kind":"k","data":{}}  \n',
                    '  {"t":2.5,"kind":"k","data":{"a":1}}\n',
                    '{"t":3,"kind":"k","data":{},"extra":[1]}\n',
                    '{"t":1.0,"kind":"k","data":{"a":[1\n',
                    '2]}}\n',
                    # Lines that are only valid JSON once joined to their
                    # neighbours: a reader that parses the joined lines
                    # must still see each of them as the per-line
                    # parser does.
                    '{"t":1.0,"kind":"k","data":{}},{"t":2.0,"kind":"k","data":{}}\n',
                    ",\n",
                    "[\n",
                    "]\n",
                    '{"t":1.0,"kind":"k","data":{}},\n',
                    '{"t":1.0,"kind":"k"\n',
                    '"data":{}}\n',
                    '{"t":1.0,"kind":"k","data":{"a":[{}\n',
                    '{}]}}\n',
                ]),
            ),
            max_size=4,
        ),
        tail=st.sampled_from(["", '{"t": 123.0, "kind": "sta', '{"t":9.0,"kind":"k","data":{}}']),
        chunk=st.sampled_from([1, 2, 3, 4096]),
        strict=st.booleans(),
    )
    def test_reader_matches_per_line_parser(self, records, odd_lines, tail, chunk, strict):
        lines = [_reference_line(*fields) for fields in records]
        for position, line in sorted(odd_lines, reverse=True):
            lines.insert(min(position, len(lines)), line)
        header = json.dumps({"schema": TRACE_SCHEMA, "meta": {}}) + "\n"
        text = header + "".join(lines) + tail
        expected = _reference_read(text, strict)
        with mock.patch.object(trace_io, "CHUNK_LINES", chunk):
            assert _read(text, strict) == expected
            streamed, failed_at = _iter(text, strict)
        if expected[0] == "error":
            assert failed_at == expected[2]
            # Everything before the bad line is yielded first.
            prefix = _reference_read(
                "".join(text.splitlines(True)[: failed_at - 1]), strict
            )
            assert streamed == prefix[1]
        else:
            assert failed_at is None
            assert streamed == expected[1]


# Lines that, joined with their neighbours, parse to one record per line
# without being one record each: two records on one line balance a
# record split over two.
_SPLIT_AND_JOINED = [
    '{"t":1.0,"kind":"k","data":{}},{"t":2.0,"kind":"k","data":{}}\n',
    '{"t":3.0,"kind":"k"\n',
    '"data":{}}\n',
]
_BAD_LINES = {
    "malformed": ["not json\n"],
    "int time": ['{"t":3,"kind":"k","data":{}}\n'],
    "string time": ['{"t":"3","kind":"k","data":{}}\n'],
    "int kind": ['{"t":3.0,"kind":3,"data":{}}\n'],
    "string data": ['{"t":3.0,"kind":"k","data":"x"}\n'],
    "no data": ['{"t":3.0,"kind":"k"}\n'],
    "blank": ["\n"],
    "split and joined": _SPLIT_AND_JOINED,
    "split and joined through a list": [
        _SPLIT_AND_JOINED[0],
        '{"t":3.0,"kind":"k","data":{"a":[{}\n',
        '{}]}}\n',
    ],
}


class TestChunkBoundaries:
    """Odd lines and torn tails at either edge of a decoded chunk."""

    @staticmethod
    def _text(bad, position, tail=""):
        lines = [_reference_line(float(i), "k", {"i": i}) for i in range(6)]
        lines[position:position] = bad
        header = json.dumps({"schema": TRACE_SCHEMA, "meta": {}}) + "\n"
        return header + "".join(lines) + tail

    @pytest.mark.parametrize("name", sorted(_BAD_LINES))
    @pytest.mark.parametrize("position", [0, 1, 3, 6])
    @pytest.mark.parametrize("strict", [True, False])
    def test_odd_lines_first_and_last_in_a_chunk(self, name, position, strict):
        bad = _BAD_LINES[name]
        text = self._text(bad, position)
        expected = _reference_read(text, strict)
        # A chunk that ends just before, at, or just after the odd
        # lines, and one that starts at them.
        for chunk in {max(1, position), position + len(bad), position + len(bad) + 1, 4096}:
            with mock.patch.object(trace_io, "CHUNK_LINES", chunk):
                assert _read(text, strict) == expected, chunk
                streamed, failed_at = _iter(text, strict)
            if expected[0] == "ok":
                assert (streamed, failed_at) == (expected[1], None), chunk
            else:
                assert failed_at == expected[2], chunk

    @pytest.mark.parametrize("chunk", [1, 2, 5, 6, 7, 4096])
    @pytest.mark.parametrize("strict", [True, False])
    def test_torn_tail_at_a_chunk_boundary(self, chunk, strict):
        # Six whole records, then the torn seventh line: with chunks of
        # 6 (or 1, 2) the torn line opens a chunk, with 7 it ends one.
        text = self._text([], 0, tail='{"t": 123.0, "kind": "sta')
        expected = _reference_read(text, strict)
        assert expected[2] is True  # truncated
        with mock.patch.object(trace_io, "CHUNK_LINES", chunk):
            assert _read(text, strict) == expected
            assert _iter(text, strict) == (expected[1], None)
