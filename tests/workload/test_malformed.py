"""Malformed trace files: typed errors with context, lenient skipping."""

from __future__ import annotations

import io
import re
from pathlib import Path

import pytest

from repro.workload.archive import load_swf_workload
from repro.workload.cwf import CWFParseError, CWFRecord, parse_cwf_workload, read_cwf
from repro.workload.ecc import ECC, ECCKind
from repro.workload.errors import WorkloadFormatError
from repro.workload.job import Job
from repro.workload.swf import SWFParseError, SWFRecord, read_swf

GOOD_SWF = "1 0 -1 100 32 -1 -1 32 120 -1 1"
GOOD_SWF2 = "2 10 -1 50 32 -1 -1 32 60 -1 1"


def _submission(job_id: int, submit: float = 0.0) -> str:
    job = Job(job_id=job_id, submit=submit, num=32, estimate=100.0)
    return CWFRecord.from_job(job).to_line()


def _ecc_line(job_id: int, issue: float = 50.0, amount: float = 30.0) -> str:
    return CWFRecord.from_ecc(
        ECC(job_id=job_id, issue_time=issue, kind=ECCKind.EXTEND_TIME, amount=amount)
    ).to_line()


class TestSWF:
    def test_strict_raises_with_file_and_line(self, tmp_path: Path) -> None:
        path = tmp_path / "trace.swf"
        path.write_text(f"; header\n{GOOD_SWF}\n1 oops\n")
        with pytest.raises(SWFParseError) as info:
            read_swf(path)
        assert info.value.line == 3
        assert info.value.source == str(path)
        assert f"{path}:3:" in str(info.value)
        assert "non-numeric" in str(info.value)

    def test_lenient_skips_with_warning(self) -> None:
        stream = io.StringIO(f"{GOOD_SWF}\nbad line here\n{GOOD_SWF2}\n")
        with pytest.warns(RuntimeWarning, match="skipping malformed record"):
            records = read_swf(stream, strict=False)
        assert [r.job_id for r in records] == [1, 2]

    def test_too_many_fields(self) -> None:
        # 18 standard + 3 optional malleability columns is the ceiling.
        line = " ".join(["1"] * 22)
        with pytest.raises(SWFParseError, match="at most 21 fields"):
            SWFRecord.parse(line)

    def test_error_types_are_compatible(self) -> None:
        # typed, but still a ValueError for pre-existing call sites
        with pytest.raises(ValueError):
            read_swf(io.StringIO("x y\n"))
        with pytest.raises(WorkloadFormatError):
            read_swf(io.StringIO("x y\n"))

    def test_comments_and_blanks_are_not_errors(self) -> None:
        stream = io.StringIO(f"; comment\n\n  \n{GOOD_SWF}\n")
        assert len(read_swf(stream)) == 1

    def test_non_finite_integer_field_is_a_parse_error(self, tmp_path: Path) -> None:
        tokens = GOOD_SWF.split() + ["-1"] * 10  # all 21 fields
        path = tmp_path / "trace.swf"
        for at, token in ((7, "inf"), (0, "-inf"), (18, "1e400"), (20, "1e400")):
            bad = " ".join(tokens[:at] + [token] + tokens[at + 1 :])
            path.write_text(f"; MaxProcs: 320\n{GOOD_SWF}\n{bad}\n{GOOD_SWF2}\n")
            with pytest.raises(SWFParseError, match="non-finite") as info:
                read_swf(path)
            assert (info.value.source, info.value.line) == (str(path), 3)
            with pytest.raises(SWFParseError, match="non-finite") as info:
                load_swf_workload(path)
            assert (info.value.source, info.value.line) == (str(path), 3)
            with pytest.warns(RuntimeWarning, match=re.escape(f"{path}:3: field ")):
                workload, report = load_swf_workload(path, strict=False)
            assert [j.job_id for j in workload.jobs] == [1, 2]
            assert report.total_records == 2

    def test_non_finite_float_field_is_a_parse_error(self) -> None:
        for at in (1, 3, 8):
            tokens = GOOD_SWF.split()
            tokens[at] = "nan"
            with pytest.raises(SWFParseError, match="non-finite"):
                SWFRecord.parse(" ".join(tokens))

    def test_single_field_line_is_a_parse_error(self) -> None:
        with pytest.raises(SWFParseError, match="job number and a submit time") as info:
            read_swf(io.StringIO(f"{GOOD_SWF}\n7\n"))
        assert info.value.line == 2

    def test_archive_loader_passes_strict_through(self, tmp_path: Path) -> None:
        path = tmp_path / "dirty.swf"
        path.write_text(f"; MaxProcs: 320\n{GOOD_SWF}\ngarbage\n{GOOD_SWF2}\n")
        with pytest.raises(SWFParseError):
            load_swf_workload(path)
        with pytest.warns(RuntimeWarning):
            workload, report = load_swf_workload(path, strict=False)
        assert report.kept == 2


class TestCWF:
    def test_unknown_request_type(self) -> None:
        bad = _ecc_line(1).rsplit(" ", 2)[0] + " XX 30"
        stream = io.StringIO(f"{_submission(1)}\n{bad}\n")
        with pytest.raises(CWFParseError) as info:
            read_cwf(stream)
        assert info.value.line == 2
        assert "unknown code" in str(info.value)

    def test_duplicate_submission(self) -> None:
        stream = io.StringIO(f"{_submission(1)}\n{_submission(1)}\n")
        with pytest.raises(CWFParseError, match="duplicate submission") as info:
            parse_cwf_workload(stream)
        assert info.value.line == 2

    def test_dangling_ecc(self) -> None:
        stream = io.StringIO(f"{_submission(1)}\n{_ecc_line(99)}\n")
        with pytest.raises(CWFParseError, match="unknown job 99"):
            parse_cwf_workload(stream)

    def test_job_constructor_errors_are_wrapped(self) -> None:
        # a dedicated job whose requested start precedes its submission
        base = SWFRecord(job_id=1, submit=100.0, run_time=50.0, requested_procs=32)
        line = f"{base.to_line()} 5"
        with pytest.raises(CWFParseError) as info:
            parse_cwf_workload(io.StringIO(line + "\n"))
        assert info.value.line == 1

    def test_non_positive_ecc_amount(self) -> None:
        bad = _ecc_line(1).rsplit(" ", 1)[0] + " -1"
        stream = io.StringIO(f"{_submission(1)}\n{bad}\n")
        with pytest.raises(CWFParseError, match="non-positive amount"):
            parse_cwf_workload(stream)

    def test_lenient_mode_keeps_good_records(self) -> None:
        stream = io.StringIO(
            f"{_submission(1)}\nnot a record at all x\n"
            f"{_submission(1)}\n{_ecc_line(1)}\n{_ecc_line(42)}\n"
        )
        with pytest.warns(RuntimeWarning):
            jobs, eccs = parse_cwf_workload(stream, strict=False)
        assert [job.job_id for job in jobs] == [1]
        assert [ecc.job_id for ecc in eccs] == [1]

    def test_strict_from_file_names_the_file(self, tmp_path: Path) -> None:
        path = tmp_path / "work.cwf"
        path.write_text(f"{_submission(1)}\nbroken !\n")
        with pytest.raises(CWFParseError) as info:
            parse_cwf_workload(path)
        assert info.value.source == str(path)
        assert info.value.line == 2

    def test_non_finite_value_is_a_parse_error(self, tmp_path: Path) -> None:
        # The 18 SWF fields of a CWF line parse through SWFRecord.parse.
        path = tmp_path / "work.cwf"
        for bad in (
            _submission(2).replace(" 32 ", " inf ", 1),
            "2 nan" + _submission(2)[3:],
            _submission(2) + " inf 4 8",  # malleable range, fields 22–24
        ):
            path.write_text(f"{_submission(1)}\n{bad}\n")
            with pytest.raises(CWFParseError, match="non-finite") as info:
                parse_cwf_workload(path)
            assert (info.value.source, info.value.line) == (str(path), 2)
