"""Tests for archive-log loading."""

from __future__ import annotations

import gzip

import pytest

from repro.workload.archive import load_swf_workload, read_header_max_procs
from repro.workload.streaming import StreamOrderError, stream_swf_workload

LOG = """\
; SDSC-like excerpt
; MaxProcs: 128
; Note: fabricated for tests
1 100 10 3600 64 -1 -1 64 4000 -1 1
2 200 -1 1800 33 -1 -1 33 2000 -1 1
3 300 -1 -1 -1 -1 -1 -1 -1 -1 0
4 400 -1 600 256 -1 -1 256 700 -1 1
5 500 50 -1 16 -1 -1 16 900 -1 5
6 600 -1 60 8 -1 -1 8 100 -1 1
"""


@pytest.fixture
def log_path(tmp_path):
    path = tmp_path / "excerpt.swf"
    path.write_text(LOG)
    return path


class TestHeader:
    def test_max_procs_parsed(self, log_path):
        assert read_header_max_procs(log_path) == 128

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bare.swf"
        path.write_text("1 0 -1 100 8 -1 -1 8 100 -1 1\n")
        assert read_header_max_procs(path) is None


class TestLoad:
    def test_basic_load_and_report(self, log_path):
        workload, report = load_swf_workload(log_path, granularity=32)
        assert workload.machine_size == 128  # from the header
        assert report.total_records == 6
        # Record 3 has no runtime/processors; record 4 exceeds 128.
        assert report.skipped_unusable == 1
        assert report.skipped_oversized == 1
        assert report.kept == 4
        # Records 2 (33p), 5 (16p) and 6 (8p) snapped up to 32-proc psets.
        assert report.snapped_to_granularity == 3
        sizes = sorted(j.num for j in workload.jobs)
        assert sizes == [32, 32, 64, 64]

    def test_rebase_to_zero(self, log_path):
        workload, report = load_swf_workload(log_path, granularity=32)
        assert min(j.submit for j in workload.jobs) == 0.0
        assert any("rebased" in note for note in report.notes)

    def test_no_rebase(self, log_path):
        workload, _ = load_swf_workload(log_path, granularity=32, rebase_time=False)
        assert min(j.submit for j in workload.jobs) == 100.0

    def test_max_jobs_excerpt(self, log_path):
        workload, report = load_swf_workload(log_path, granularity=1, max_jobs=2)
        assert len(workload) == 2
        assert report.kept == 2

    def test_max_jobs_keeps_the_first_jobs_in_submission_order(self, tmp_path):
        path = tmp_path / "unsorted.swf"
        path.write_text(
            "; MaxProcs: 64\n"
            "1 100 -1 60 8 -1 -1 8 60 -1 1\n"
            "2 5 -1 60 8 -1 -1 8 60 -1 1\n"
            "3 50 -1 60 8 -1 -1 8 60 -1 1\n"
        )
        workload, report = load_swf_workload(path, max_jobs=2, rebase_time=False)
        assert [j.job_id for j in workload.jobs] == [2, 3]
        assert report.kept == 2
        streamed = stream_swf_workload(path, max_jobs=2, rebase_time=False)
        assert [j.job_id for j in streamed] == [2, 3]

    def test_disorder_beyond_the_reorder_window_raises(self, tmp_path):
        lines = [f"{i} {10 * i} -1 60 8 -1 -1 8 60 -1 1" for i in range(1, 600)]
        lines.append("600 0 -1 60 8 -1 -1 8 60 -1 1")  # 599 records late
        path = tmp_path / "disordered.swf"
        path.write_text("; MaxProcs: 64\n" + "\n".join(lines) + "\n")
        with pytest.raises(StreamOrderError):
            load_swf_workload(path)

    def test_status5_cancellation_carried(self, log_path):
        workload, _ = load_swf_workload(log_path, granularity=1, rebase_time=False)
        cancelled = [j for j in workload.jobs if j.cancel_at is not None]
        assert [j.job_id for j in cancelled] == [5]
        assert cancelled[0].cancel_at == 550.0  # submit 500 + wait 50

    def test_machine_size_override(self, log_path):
        workload, _ = load_swf_workload(log_path, machine_size=512, granularity=32)
        assert workload.machine_size == 512
        assert len(workload) == 5  # the 256-proc job now fits

    def test_missing_machine_size_rejected(self, tmp_path):
        path = tmp_path / "bare.swf"
        path.write_text("1 0 -1 100 8 -1 -1 8 100 -1 1\n")
        with pytest.raises(ValueError, match="MaxProcs"):
            load_swf_workload(path)

    def test_bad_granularity_rejected(self, log_path):
        with pytest.raises(ValueError, match="not a multiple"):
            load_swf_workload(log_path, machine_size=100, granularity=32)

    def test_empty_log_rejected(self, tmp_path):
        path = tmp_path / "empty.swf"
        path.write_text("; MaxProcs: 64\n")
        with pytest.raises(ValueError, match="no usable"):
            load_swf_workload(path)

    def test_gzip_log(self, tmp_path):
        path = tmp_path / "excerpt.swf.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(LOG)
        workload, report = load_swf_workload(path, granularity=32)
        assert report.kept == 4

    def test_loaded_log_simulates(self, log_path):
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import simulate

        workload, _ = load_swf_workload(log_path, granularity=32)
        metrics = simulate(workload, make_scheduler("Delayed-LOS"))
        # Job 5 may cancel in queue or run; everything is accounted for.
        assert metrics.n_jobs + metrics.n_cancelled == len(workload)
