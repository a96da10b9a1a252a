"""Tests for archive-log loading."""

from __future__ import annotations

import gzip

import pytest

from repro.workload.archive import load_swf_workload, read_header_max_procs
from repro.workload.streaming import StreamOrderError, iter_jobs, stream_swf_workload

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


#: Jobs with a malleable range (fields 19–21) whose log starts at t=100.
RANGED_LOG = """\
; MaxProcs: 256
1 100 -1 600 40 -1 -1 40 700 -1 1 -1 -1 -1 -1 -1 -1 -1 20 40 48
2 150 -1 600 64 -1 -1 64 700 -1 1 -1 -1 -1 -1 -1 -1 -1 32 64 128
3 200 -1 600 8 -1 -1 8 700 -1 1 -1 -1 -1 -1 -1 -1 -1 1 -1 8
4 250 30 -1 16 -1 -1 16 700 -1 5 -1 -1 -1 -1 -1 -1 -1 8 16 24
"""


class TestMalleableRange:
    """Rebasing or snapping a job keeps its ``min/pref/max`` range."""

    @pytest.fixture
    def ranged_path(self, tmp_path):
        path = tmp_path / "ranged.swf"
        path.write_text(RANGED_LOG)
        return path

    EXPECTED = [
        # (id, submit, num, min, pref, max, cancel_at): snapped sizes
        # raise a max below them; every submit is rebased by -100s.
        (1, 0.0, 64, 20, 40, 64, None),
        (2, 50.0, 64, 32, 64, 128, None),
        (3, 100.0, 32, 1, 8, 32, None),
        (4, 150.0, 32, 8, 16, 32, 180.0),
    ]

    @staticmethod
    def _ranges(jobs):
        return [
            (j.job_id, j.submit, j.num, j.min_procs, j.pref_procs, j.max_procs, j.cancel_at)
            for j in jobs
        ]

    def test_load_keeps_the_range_on_rebased_and_snapped_jobs(self, ranged_path):
        workload, report = load_swf_workload(ranged_path, granularity=32)
        assert report.snapped_to_granularity == 3
        assert self._ranges(workload.jobs) == self.EXPECTED

    def test_stream_keeps_the_range_on_rebased_and_snapped_jobs(self, ranged_path):
        stream = stream_swf_workload(ranged_path, granularity=32)
        assert self._ranges(stream) == self.EXPECTED


class TestDuplicateKeys:
    """Two records with one ``(submit, job_id)`` keep file order."""

    LOG = (
        "; MaxProcs: 64\n"
        "1 0 -1 60 8 -1 -1 8 60 -1 1\n"
        "7 10 -1 70 8 -1 -1 8 70 -1 1\n"
        "7 10 -1 80 8 -1 -1 8 80 -1 1\n"
        "2 20 -1 90 8 -1 -1 8 90 -1 1\n"
    )

    @pytest.fixture
    def dup_path(self, tmp_path):
        path = tmp_path / "dup.swf"
        path.write_text(self.LOG)
        return path

    def test_loaders_and_iter_jobs_keep_file_order(self, dup_path):
        expected = [(1, 60.0), (7, 70.0), (7, 80.0), (2, 90.0)]
        workload, _ = load_swf_workload(dup_path)
        assert [(j.job_id, j.actual) for j in workload.jobs] == expected
        streamed = stream_swf_workload(dup_path)
        assert [(j.job_id, j.actual) for j in streamed] == expected
        assert [(j.job_id, j.actual) for j in iter_jobs(dup_path)] == expected

    def test_duplicate_reaches_the_runners_duplicate_id_check(self, dup_path):
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import simulate

        with pytest.raises(ValueError, match="duplicate job ids"):
            simulate(stream_swf_workload(dup_path), make_scheduler("EASY"))
        workload, _ = load_swf_workload(dup_path)
        with pytest.raises(ValueError, match="duplicate job ids"):
            simulate(workload, make_scheduler("EASY"))
