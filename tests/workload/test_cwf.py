"""Tests for the Cloud Workload Format (Figure 4 extension)."""

from __future__ import annotations

import io

import pytest

from repro.workload.cwf import (
    CWFParseError,
    CWFRecord,
    parse_cwf_workload,
    read_cwf,
    write_cwf,
)
from repro.workload.ecc import ECC, ECCKind
from repro.workload.job import Job, JobKind
from repro.workload.streaming import stream_cwf_workload
from tests.conftest import batch_job, dedicated_job

SUBMIT_LINE = "1 100 -1 3600 64 -1 -1 64 4000 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 S -1"
DEDICATED_LINE = "2 100 -1 3600 64 -1 -1 64 4000 -1 1 -1 -1 -1 -1 -1 -1 -1 500 S -1"
ECC_LINE = "1 900 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 ET 600"


class TestParsing:
    def test_parse_submission(self):
        record = CWFRecord.parse(SUBMIT_LINE)
        assert record.is_submission
        assert record.requested_start == -1
        assert record.request_type is ECCKind.SUBMIT

    def test_parse_dedicated_submission(self):
        record = CWFRecord.parse(DEDICATED_LINE)
        job = record.to_job()
        assert job.kind is JobKind.DEDICATED
        assert job.requested_start == 500.0

    def test_parse_ecc_line(self):
        record = CWFRecord.parse(ECC_LINE)
        assert not record.is_submission
        ecc = record.to_ecc()
        assert ecc.job_id == 1
        assert ecc.issue_time == 900.0
        assert ecc.kind is ECCKind.EXTEND_TIME
        assert ecc.amount == 600.0

    def test_case_insensitive_request_type(self):
        record = CWFRecord.parse(ECC_LINE.replace(" ET ", " et "))
        assert record.request_type is ECCKind.EXTEND_TIME

    def test_unknown_request_type_rejected(self):
        with pytest.raises(CWFParseError, match="unknown code"):
            CWFRecord.parse(ECC_LINE.replace(" ET ", " XX "))

    def test_plain_swf_line_parses_as_submission(self):
        # CWF is a superset: bare 18-field SWF lines are submissions.
        record = CWFRecord.parse("1 100 -1 3600 64 -1 -1 64 4000")
        assert record.is_submission

    def test_too_many_fields_rejected(self):
        # 21 CWF fields plus the optional 3-column malleability range
        # (fields 22-24) is the ceiling.
        with pytest.raises(CWFParseError, match="at most 24"):
            CWFRecord.parse(" ".join(["1"] * 25))


class TestConversionErrors:
    def test_to_job_on_ecc_rejected(self):
        with pytest.raises(CWFParseError, match="not a submission"):
            CWFRecord.parse(ECC_LINE).to_job()

    def test_to_ecc_on_submission_rejected(self):
        with pytest.raises(CWFParseError, match="not an ECC"):
            CWFRecord.parse(SUBMIT_LINE).to_ecc()

    def test_to_ecc_without_amount_rejected(self):
        line = ECC_LINE.rsplit(" ", 1)[0] + " -1"
        with pytest.raises(CWFParseError, match="non-positive amount"):
            CWFRecord.parse(line).to_ecc()


class TestRoundTrip:
    def test_line_roundtrip(self):
        for line in (SUBMIT_LINE, DEDICATED_LINE, ECC_LINE):
            record = CWFRecord.parse(line)
            assert CWFRecord.parse(record.to_line()) == record

    def test_from_job_and_back(self):
        job = dedicated_job(5, submit=10.0, num=96, estimate=500.0, requested_start=80.0)
        record = CWFRecord.from_job(job)
        again = record.to_job()
        assert again.is_dedicated
        assert again.requested_start == 80.0
        assert again.num == 96

    def test_from_ecc_and_back(self):
        ecc = ECC(job_id=9, issue_time=33.0, kind=ECCKind.REDUCE_TIME, amount=120.0)
        record = CWFRecord.from_ecc(ecc)
        assert record.to_ecc() == ecc

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.cwf"
        records = [CWFRecord.parse(line) for line in (SUBMIT_LINE, DEDICATED_LINE, ECC_LINE)]
        write_cwf(records, path, header=["CWF test"])
        assert read_cwf(path) == records


class TestWorkloadSplit:
    def test_split_jobs_and_eccs(self):
        text = "\n".join([SUBMIT_LINE, DEDICATED_LINE, ECC_LINE]) + "\n"
        jobs, eccs = parse_cwf_workload(io.StringIO(text))
        assert [j.job_id for j in jobs] == [1, 2]
        assert jobs[1].is_dedicated
        assert len(eccs) == 1 and eccs[0].job_id == 1

    def test_dangling_ecc_rejected(self):
        with pytest.raises(CWFParseError, match="unknown job"):
            parse_cwf_workload(io.StringIO(ECC_LINE + "\n"))

    def test_duplicate_submission_rejected(self):
        text = SUBMIT_LINE + "\n" + SUBMIT_LINE + "\n"
        with pytest.raises(CWFParseError, match="duplicate"):
            parse_cwf_workload(io.StringIO(text))

    def test_workload_to_cwf_roundtrip(self, tmp_path):
        from tests.conftest import make_workload

        workload = make_workload(
            [batch_job(1, submit=0.0, num=64), dedicated_job(2, submit=5.0, requested_start=50.0)],
            eccs=[ECC(job_id=1, issue_time=10.0, kind=ECCKind.EXTEND_TIME, amount=60.0)],
        )
        path = tmp_path / "wl.cwf"
        workload.to_cwf(path)
        jobs, eccs = parse_cwf_workload(path)
        assert len(jobs) == 2 and len(eccs) == 1
        assert jobs[1].is_dedicated and jobs[1].requested_start == 50.0
        assert eccs[0].kind is ECCKind.EXTEND_TIME


class TestCancellation:
    """A status-5 record that never ran leaves the queue at submit + wait."""

    @pytest.mark.parametrize("requested_start", ["-1", "400"], ids=["batch", "dedicated"])
    def test_queue_cancellation_survives_parse_and_stream(self, tmp_path, requested_start):
        line = f"3 100 50 -1 64 -1 -1 64 4000 -1 5 -1 -1 -1 -1 -1 -1 -1 {requested_start} S -1"
        path = tmp_path / "cancelled.cwf"
        path.write_text(line + "\n")
        parsed, _ = parse_cwf_workload(path)
        streamed = [item for item in stream_cwf_workload(path) if isinstance(item, Job)]
        for jobs in (parsed, streamed):
            assert [(job.job_id, job.cancel_at) for job in jobs] == [(3, 150.0)]
            assert jobs[0].is_dedicated == (requested_start != "-1")


class TestGzipSupport:
    def test_gz_roundtrip(self, tmp_path):
        path = tmp_path / "trace.cwf.gz"
        records = [CWFRecord.parse(line) for line in (SUBMIT_LINE, ECC_LINE)]
        write_cwf(records, path)
        assert read_cwf(path) == records


class TestMalleableColumns:
    """Optional fields 22-24: the min/pref/max processor range."""

    RANGED_SUBMIT = SUBMIT_LINE + " 32 64 128"

    def test_parse_and_convert(self):
        record = CWFRecord.parse(self.RANGED_SUBMIT)
        assert (record.min_procs, record.pref_procs, record.max_procs) == (32, 64, 128)
        job = record.to_job()
        assert job.is_malleable and not job.is_dedicated

    def test_ranged_line_roundtrips(self):
        record = CWFRecord.parse(self.RANGED_SUBMIT)
        assert len(record.to_line().split()) == 24
        assert CWFRecord.parse(record.to_line()) == record

    def test_rigid_line_stays_21_fields(self):
        record = CWFRecord.parse(SUBMIT_LINE)
        assert len(record.to_line().split()) == 21

    def test_dedicated_submission_carries_the_range(self):
        record = CWFRecord.parse(DEDICATED_LINE + " 32 64 128")
        job = record.to_job()
        assert job.is_dedicated and job.is_malleable
        assert (job.min_procs, job.pref_procs, job.max_procs) == (32, 64, 128)

    def test_from_job_round_trip(self):
        job = CWFRecord.parse(self.RANGED_SUBMIT).to_job()
        again = CWFRecord.from_job(job).to_job()
        assert (again.min_procs, again.pref_procs, again.max_procs) == (32, 64, 128)

    def test_ecc_lines_never_grow_columns(self):
        record = CWFRecord.parse(ECC_LINE)
        assert len(record.to_line().split()) == 21
        assert record.to_ecc().kind is ECCKind.EXTEND_TIME
