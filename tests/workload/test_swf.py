"""Tests for the Standard Workload Format parser/writer."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

from repro.workload.job import JobKind
from repro.workload.swf import SWFParseError, SWFRecord, iter_swf, read_swf, write_swf
from tests.workload.swf_reference import reference_to_line

FULL_LINE = "1 100 5 3600 64 -1 -1 64 4000 -1 1 3 4 5 6 7 -1 -1"


class TestParsing:
    def test_parse_full_line(self):
        record = SWFRecord.parse(FULL_LINE)
        assert record.job_id == 1
        assert record.submit == 100.0
        assert record.wait == 5.0
        assert record.run_time == 3600.0
        assert record.allocated_procs == 64
        assert record.requested_procs == 64
        assert record.requested_time == 4000.0
        assert record.status == 1
        assert record.user_id == 3

    def test_short_line_padded_with_unknowns(self):
        record = SWFRecord.parse("7 250 -1 1800 32")
        assert record.job_id == 7
        assert record.requested_procs == -1
        assert record.think_time == -1

    def test_empty_line_rejected(self):
        with pytest.raises(SWFParseError, match="empty"):
            SWFRecord.parse("   ")

    def test_too_many_fields_rejected(self):
        # 18 standard fields plus the optional 3-column malleability
        # range (fields 19-21) is the ceiling.
        with pytest.raises(SWFParseError, match="at most 21"):
            SWFRecord.parse(" ".join(["1"] * 22))

    def test_non_numeric_rejected(self):
        with pytest.raises(SWFParseError, match="non-numeric"):
            SWFRecord.parse("1 abc 0 0 0")


class TestRoundTrip:
    def test_line_roundtrip(self):
        record = SWFRecord.parse(FULL_LINE)
        assert SWFRecord.parse(record.to_line()) == record

    def test_file_roundtrip_with_header(self):
        records = [SWFRecord.parse(FULL_LINE), SWFRecord.parse("2 200 -1 60 8 -1 -1 8 100")]
        buffer = io.StringIO()
        write_swf(records, buffer, header=["MaxProcs: 320", "Version: 2"])
        buffer.seek(0)
        text = buffer.getvalue()
        assert text.startswith("; MaxProcs: 320\n; Version: 2\n")
        assert read_swf(io.StringIO(text)) == records

    def test_iter_skips_comments_and_blanks(self):
        stream = io.StringIO("; comment\n\n" + FULL_LINE + "\n")
        assert len(list(iter_swf(stream))) == 1

    def test_file_path_io(self, tmp_path):
        path = tmp_path / "trace.swf"
        records = [SWFRecord.parse(FULL_LINE)]
        write_swf(records, path)
        assert read_swf(path) == records

    @given(
        job_id=st.integers(1, 10**6),
        submit=st.integers(0, 10**7),
        procs=st.integers(1, 320),
        runtime=st.integers(1, 10**5),
        estimate=st.integers(1, 10**5),
    )
    def test_roundtrip_property(self, job_id, submit, procs, runtime, estimate):
        record = SWFRecord(
            job_id=job_id,
            submit=float(submit),
            run_time=float(runtime),
            requested_procs=procs,
            requested_time=float(estimate),
        )
        assert SWFRecord.parse(record.to_line()) == record


class TestJobConversion:
    def test_to_job_uses_requested_time(self):
        job = SWFRecord.parse(FULL_LINE).to_job()
        assert job.kind is JobKind.BATCH
        assert job.num == 64
        assert job.estimate == 4000.0
        assert job.actual == 3600.0
        assert job.submit == 100.0

    def test_to_job_falls_back_to_run_time(self):
        record = SWFRecord(job_id=1, submit=0.0, run_time=500.0, requested_procs=8)
        job = record.to_job()
        assert job.estimate == 500.0

    def test_to_job_falls_back_to_allocated_procs(self):
        record = SWFRecord(job_id=1, submit=0.0, run_time=500.0, allocated_procs=16)
        assert record.to_job().num == 16

    def test_to_job_without_runtime_rejected(self):
        record = SWFRecord(job_id=1, submit=0.0, requested_procs=8)
        with pytest.raises(SWFParseError, match="no usable runtime"):
            record.to_job()

    def test_to_job_without_procs_rejected(self):
        record = SWFRecord(job_id=1, submit=0.0, run_time=100.0)
        with pytest.raises(SWFParseError, match="processor request"):
            record.to_job()

    def test_to_job_cancel_with_unknown_wait_leaves_at_submit(self):
        record = SWFRecord(job_id=1, submit=40.0, requested_procs=8, status=5)
        job = record.to_job()
        assert (job.cancel_at, job.estimate) == (40.0, 1.0)

    def test_from_job_roundtrip(self):
        job = SWFRecord.parse(FULL_LINE).to_job()
        job.start_time = 150.0
        job.finish_time = 150.0 + 3600.0
        record = SWFRecord.from_job(job)
        assert record.job_id == job.job_id
        assert record.wait == 50.0
        assert record.run_time == 3600.0
        assert record.requested_time == 4000.0
        # And it converts back to an equivalent job.
        again = record.to_job()
        assert again.num == job.num and again.estimate == job.estimate


class TestGzipSupport:
    def test_gz_roundtrip(self, tmp_path):
        """Archive logs ship as .swf.gz; readers/writers handle them."""
        path = tmp_path / "trace.swf.gz"
        records = [SWFRecord.parse(FULL_LINE)]
        write_swf(records, path, header=["compressed"])
        import gzip

        with gzip.open(path, "rt", encoding="utf-8") as fh:
            assert fh.readline().startswith("; compressed")
        assert read_swf(path) == records


class TestMalleableColumns:
    """Optional fields 19-21: the min/pref/max processor range."""

    RANGED_LINE = FULL_LINE + " 32 64 128"

    def test_parse_and_convert(self):
        record = SWFRecord.parse(self.RANGED_LINE)
        assert (record.min_procs, record.pref_procs, record.max_procs) == (32, 64, 128)
        job = record.to_job()
        assert job.is_malleable
        assert (job.min_procs, job.pref_procs, job.max_procs) == (32, 64, 128)

    def test_ranged_line_roundtrips(self):
        record = SWFRecord.parse(self.RANGED_LINE)
        assert len(record.to_line().split()) == 21
        assert SWFRecord.parse(record.to_line()) == record

    def test_rigid_line_stays_18_fields(self):
        record = SWFRecord.parse(FULL_LINE)
        assert not record.has_malleable_range
        assert len(record.to_line().split()) == 18

    def test_unknown_markers_mean_rigid(self):
        record = SWFRecord.parse(FULL_LINE + " -1 -1 -1")
        assert not record.has_malleable_range
        job = record.to_job()
        assert not job.is_malleable
        # and the -1s are not echoed back out
        assert len(record.to_line().split()) == 18

    def test_from_job_carries_the_range(self):
        job = SWFRecord.parse(self.RANGED_LINE).to_job()
        again = SWFRecord.from_job(job)
        assert (again.min_procs, again.pref_procs, again.max_procs) == (32, 64, 128)

    def test_legacy_lenient_read_emits_no_warnings(self):
        # strict=False on a clean 18-field archive log must stay silent
        import warnings

        stream = io.StringIO(f"; header\n{FULL_LINE}\n2 200 -1 60 8 -1 -1 8 100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = read_swf(stream, strict=False)
        assert [r.job_id for r in records] == [1, 2]


# Any value a field may hold: ints (also in float fields, up to the
# 64-bit range), floats (also in int fields; negative, non-integral and
# large), the -1 unknown marker in both kinds, and a bool.
_FIELD_VALUES = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([-1, -1.0, 0, 0.0, -0.0, 0.5, 1.005, 2.675, True]),
)
_ALL_FIELDS = SWFRecord.FIELD_NAMES + SWFRecord.RANGE_FIELD_NAMES


class TestWriterAgainstReference:
    """``to_line`` is byte-equal to the per-field rule it replaced."""

    @given(st.lists(_FIELD_VALUES, min_size=len(_ALL_FIELDS), max_size=len(_ALL_FIELDS)))
    def test_arbitrary_records(self, values):
        record = SWFRecord(**dict(zip(_ALL_FIELDS, values)))
        assert record.to_line() == reference_to_line(record)

    @given(
        st.lists(_FIELD_VALUES, min_size=len(SWFRecord.FIELD_NAMES),
                 max_size=len(SWFRecord.FIELD_NAMES)),
        st.lists(st.sampled_from([-1, 0, 1, 32, 64.0, 320]), min_size=3, max_size=3),
    )
    def test_malleable_columns_set_or_unset(self, values, bounds):
        record = SWFRecord(**dict(zip(_ALL_FIELDS, values + bounds)))
        line = record.to_line()
        assert line == reference_to_line(record)
        assert len(line.split()) == (21 if record.has_malleable_range else 18)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_int_fields_raise_alike(self, value):
        record = SWFRecord(job_id=1, submit=0.0, requested_procs=value)
        with pytest.raises((ValueError, OverflowError)) as reference_error:
            reference_to_line(record)
        with pytest.raises(reference_error.type):
            record.to_line()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_fields_write_alike(self, value):
        record = SWFRecord(job_id=1, submit=value, run_time=value)
        assert record.to_line() == reference_to_line(record)
