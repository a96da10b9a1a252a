"""Streaming ingestion vs. eager loading: the byte-identity contract.

The streaming readers (:mod:`repro.workload.streaming`) exist purely
for memory; they must never change *what* is simulated.  These tests
pin that on generated inputs: streamed archive logs equal the eager
loader's jobs field by field and its report equals a straight recount
of the file, the synthetic stream yields the eager generator's jobs
and ECCs in the eager order, and malformed input behaves identically
under strict/skip.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.workload.archive import load_swf_workload
from repro.workload.cwf import CWFParseError, CWFRecord, parse_cwf_workload, write_cwf
from repro.workload.ecc import ECC, ECCKind
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.job import Job
from repro.workload.lublin import LublinConfig
from repro.workload.streaming import (
    StreamOrderError,
    SyntheticWorkloadStream,
    iter_jobs,
    stream_cwf_workload,
    stream_swf_workload,
)
from repro.workload.swf import SWFRecord, write_swf
from tests.workload.test_archive import LOG


def _swf_record(job_id, submit, procs=4, runtime=100.0, status=1):
    return SWFRecord(
        job_id=job_id,
        submit=submit,
        run_time=runtime,
        requested_time=runtime,
        requested_procs=procs,
        status=status,
    )


def _job_key(job: Job):
    return (
        job.job_id,
        job.submit,
        job.num,
        job.original_estimate,
        job.actual,
        job.kind,
        job.requested_start,
        job.cancel_at,
    )


@pytest.fixture
def swf_file(tmp_path):
    records = [_swf_record(i, submit=10.0 * i, procs=2 + i % 5) for i in range(1, 41)]
    path = tmp_path / "log.swf"
    write_swf(records, path, header=("MaxProcs: 64",))
    return path


class TestIterJobs:
    def test_matches_eager_reader(self, swf_file):
        from repro.workload.swf import read_swf

        eager = [r.to_job() for r in read_swf(swf_file)]
        streamed = list(iter_jobs(swf_file))
        assert [_job_key(j) for j in streamed] == [_job_key(j) for j in eager]

    def test_reorders_local_swaps_within_lookahead(self, tmp_path):
        records = [
            _swf_record(1, submit=0.0),
            _swf_record(3, submit=50.0),   # swapped pair
            _swf_record(2, submit=20.0),
            _swf_record(4, submit=80.0),
        ]
        path = tmp_path / "swapped.swf"
        write_swf(records, path)
        submits = [j.submit for j in iter_jobs(path, lookahead=4)]
        assert submits == sorted(submits)

    def test_disorder_beyond_lookahead_raises(self, tmp_path):
        records = [_swf_record(i, submit=100.0 * i) for i in range(1, 10)]
        records.append(_swf_record(99, submit=0.0))  # 900s out of order
        path = tmp_path / "disordered.swf"
        write_swf(records, path)
        with pytest.raises(StreamOrderError):
            list(iter_jobs(path, lookahead=2))
        # A buffer deep enough to hold the run absorbs it.
        submits = [j.submit for j in iter_jobs(path, lookahead=16)]
        assert submits == sorted(submits)

    def test_strict_raises_on_malformed_line(self, tmp_path):
        path = tmp_path / "dirty.swf"
        path.write_text(
            _swf_record(1, submit=0.0).to_line() + "\n"
            + "not a record at all x y z\n"
            + _swf_record(2, submit=10.0).to_line() + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError):
            list(iter_jobs(path))
        with pytest.warns(RuntimeWarning):
            jobs = list(iter_jobs(path, strict=False))
        assert [j.job_id for j in jobs] == [1, 2]

    def test_unknown_suffix_needs_fmt(self, tmp_path):
        path = tmp_path / "log.dat"
        write_swf([_swf_record(1, submit=0.0)], path)
        with pytest.raises(ValueError):
            list(iter_jobs(path))
        assert len(list(iter_jobs(path, fmt="swf"))) == 1


#: Machine size of the generated archive logs (their ``MaxProcs``).
ARCHIVE_MACHINE = 128
#: Record shapes of a generated log; ``no-*`` records are unusable.
SHAPES = ("ok", "ok", "ok", "oversized", "cancelled", "no-runtime", "no-procs")


@st.composite
def archive_logs(draw):
    """An archive-shaped SWF log as ``[(record, usable), ...]`` in file order.

    Submissions rise with a random gap; some records have no usable
    runtime or processor count, some are larger than the machine, some
    were cancelled in the queue, sizes ignore any granularity, and
    random adjacent swaps leave the file locally out of order (by far
    less than the reorder window).
    """
    n = draw(st.integers(0, 40))
    submit = draw(st.integers(0, 5000))
    log = []
    for job_id in range(1, n + 1):
        submit += draw(st.integers(0, 300))
        procs = draw(st.integers(1, ARCHIVE_MACHINE))
        runtime = draw(st.integers(1, 5000))
        record = _swf_record(job_id, submit=float(submit), procs=procs, runtime=runtime)
        shape = draw(st.sampled_from(SHAPES))
        if shape == "oversized":
            record.requested_procs = draw(
                st.integers(ARCHIVE_MACHINE + 1, 4 * ARCHIVE_MACHINE)
            )
        elif shape == "cancelled":
            record.status = SWFRecord.CANCELLED_STATUS
            record.run_time = -1
            record.wait = draw(st.integers(0, 600))
        elif shape == "no-runtime":
            record.run_time = record.requested_time = -1
        elif shape == "no-procs":
            record.requested_procs = record.allocated_procs = -1
        log.append((record, not shape.startswith("no-")))
    for i in draw(st.lists(st.integers(0, max(n - 2, 0)), max_size=n // 2)):
        if i + 1 < n:
            log[i], log[i + 1] = log[i + 1], log[i]
    return log


def _recount(log, granularity, max_jobs):
    """A straight recount of ``log``: the kept ids and the report's counts."""
    usable = sorted(
        (record for record, ok in log if ok), key=lambda r: (r.submit, r.job_id)
    )
    kept, snapped, oversized = [], 0, 0
    for record in usable:
        if max_jobs is not None and len(kept) == max_jobs:
            break
        procs = record.requested_procs
        num = -(-procs // granularity) * granularity
        snapped += num != procs
        if num > ARCHIVE_MACHINE:
            oversized += 1
            continue
        kept.append(record.job_id)
    unusable = sum(not ok for _, ok in log)
    return kept, dict(
        total_records=len(log),
        skipped_unusable=unusable,
        skipped_oversized=oversized,
        snapped_to_granularity=snapped,
        kept=len(kept),
    )


class TestStreamSWFWorkload:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        log=archive_logs(),
        granularity=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]),
        max_jobs=st.none() | st.integers(0, 45),
        rebase_time=st.booleans(),
    )
    def test_matches_eager_loader(
        self, tmp_path, log, granularity, max_jobs, rebase_time
    ):
        path = tmp_path / "archive.swf"
        header = (f"MaxProcs: {ARCHIVE_MACHINE}",)
        write_swf([record for record, _ in log], path, header=header)
        options = dict(
            granularity=granularity, max_jobs=max_jobs, rebase_time=rebase_time
        )
        streamed = list(stream_swf_workload(path, **options))
        kept, counts = _recount(log, granularity, max_jobs)
        assert [j.job_id for j in streamed] == kept
        if not kept:
            with pytest.raises(ValueError, match="no usable records"):
                load_swf_workload(path, **options)
            return
        workload, report = load_swf_workload(path, **options)
        assert streamed == workload.jobs
        if max_jobs is not None:
            # An excerpt stops reading early: only the counts taken in
            # submission order up to the last kept job are defined.
            del counts["total_records"], counts["skipped_unusable"]
        assert {name: getattr(report, name) for name in counts} == counts
        assert report.header_max_procs == ARCHIVE_MACHINE

    def test_skips_unusable_records_like_eager(self, tmp_path):
        path = tmp_path / "excerpt.swf"
        path.write_text(LOG)
        workload, report = load_swf_workload(path, granularity=32)
        streamed = list(stream_swf_workload(path, granularity=32))
        assert report.skipped_unusable == 1
        assert [j.job_id for j in streamed] == [1, 2, 5, 6]
        assert streamed == workload.jobs

    def test_header_machine_size_and_oversized_skip(self, tmp_path):
        records = [
            _swf_record(1, submit=0.0, procs=4),
            _swf_record(2, submit=5.0, procs=500),  # larger than MaxProcs
            _swf_record(3, submit=9.0, procs=8),
        ]
        path = tmp_path / "sized.swf"
        write_swf(records, path, header=("MaxProcs: 64",))
        stream = stream_swf_workload(path)
        assert stream.machine_size == 64
        assert [j.job_id for j in stream] == [1, 3]

    def test_rebase_shifts_first_kept_job_to_zero(self, tmp_path):
        records = [_swf_record(1, submit=5000.0), _swf_record(2, submit=5600.0)]
        path = tmp_path / "late.swf"
        write_swf(records, path, header=("MaxProcs: 64",))
        jobs = list(stream_swf_workload(path))
        assert [j.submit for j in jobs] == [0.0, 600.0]

    def test_no_machine_size_anywhere_raises(self, tmp_path):
        path = tmp_path / "bare.swf"
        write_swf([_swf_record(1, submit=0.0)], path)
        with pytest.raises(ValueError):
            stream_swf_workload(path)


class TestStreamCWFWorkload:
    @pytest.fixture
    def cwf_file(self, tmp_path):
        records = [
            CWFRecord(job_id=1, submit=0.0, run_time=100.0,
                      requested_time=100.0, requested_procs=4, status=1),
            CWFRecord(job_id=2, submit=30.0, run_time=50.0,
                      requested_time=50.0, requested_procs=2, status=1),
        ]
        ecc = CWFRecord.from_ecc(
            ECC(job_id=1, issue_time=40.0, kind=ECCKind.EXTEND_TIME, amount=20.0)
        )
        path = tmp_path / "log.cwf"
        write_cwf([records[0], records[1], ecc], path)
        return path

    def test_matches_eager_parse(self, cwf_file):
        jobs, eccs = parse_cwf_workload(cwf_file)
        items = list(stream_cwf_workload(cwf_file))
        streamed_jobs = [i for i in items if isinstance(i, Job)]
        streamed_eccs = [i for i in items if isinstance(i, ECC)]
        assert [_job_key(j) for j in streamed_jobs] == [_job_key(j) for j in jobs]
        assert [(e.job_id, e.issue_time, e.kind, e.amount) for e in streamed_eccs] \
            == [(e.job_id, e.issue_time, e.kind, e.amount) for e in eccs]

    def test_ecc_before_submission_raises(self, tmp_path):
        ecc = CWFRecord.from_ecc(
            ECC(job_id=9, issue_time=5.0, kind=ECCKind.EXTEND_TIME, amount=10.0)
        )
        path = tmp_path / "dangling.cwf"
        write_cwf([ecc], path)
        with pytest.raises(CWFParseError):
            list(stream_cwf_workload(path))
        with pytest.warns(RuntimeWarning):
            assert list(stream_cwf_workload(path, strict=False)) == []

    def test_errors_carry_the_line_number(self, tmp_path):
        records = [
            CWFRecord(job_id=1, submit=0.0, run_time=10.0,
                      requested_time=10.0, requested_procs=1, status=1),
            CWFRecord(job_id=2, submit=5.0, run_time=10.0,
                      requested_time=10.0, requested_procs=1, status=1),
            CWFRecord.from_ecc(
                ECC(job_id=9, issue_time=8.0, kind=ECCKind.EXTEND_TIME, amount=10.0)
            ),
        ]
        path = tmp_path / "d.cwf"
        write_cwf(records, path)
        with pytest.raises(CWFParseError, match="unknown job 9") as eager:
            parse_cwf_workload(path)
        with pytest.raises(CWFParseError, match="unknown job 9") as streamed:
            list(stream_cwf_workload(path))
        assert eager.value.line == streamed.value.line == 3
        assert "d.cwf:3:" in str(streamed.value)

    def test_out_of_order_records_raise(self, tmp_path):
        records = [
            CWFRecord(job_id=1, submit=100.0, run_time=10.0,
                      requested_time=10.0, requested_procs=1, status=1),
            CWFRecord(job_id=2, submit=50.0, run_time=10.0,
                      requested_time=10.0, requested_procs=1, status=1),
        ]
        path = tmp_path / "unsorted.cwf"
        write_cwf(records, path)
        with pytest.raises(CWFParseError) as exc:
            list(stream_cwf_workload(path))
        assert exc.value.line == 2


class TestSyntheticStream:
    CONFIG = GeneratorConfig(
        n_jobs=200, p_dedicated=0.2, p_extend=0.25, p_reduce=0.15, p_cancel=0.05
    )

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bitwise_identical_to_eager_generate(self, seed):
        eager = CWFWorkloadGenerator(self.CONFIG).generate(
            np.random.default_rng(seed)
        )
        items = list(SyntheticWorkloadStream(self.CONFIG, seed=seed).stream())
        assert [i for i in items if isinstance(i, Job)] == eager.jobs
        # The exact order the eager Workload sorts its commands into.
        assert [i for i in items if isinstance(i, ECC)] == eager.eccs

    @settings(max_examples=40, deadline=None)
    @given(
        n_jobs=st.integers(0, 80),
        p_dedicated=st.floats(0.0, 1.0),
        p_extend=st.floats(0.0, 1.0),
        p_reduce=st.floats(0.0, 1.0),
        p_cancel=st.floats(0.0, 1.0),
        quota_enabled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_identical_to_eager_generate_for_any_config(
        self, n_jobs, p_dedicated, p_extend, p_reduce, p_cancel, quota_enabled, seed
    ):
        config = GeneratorConfig(
            n_jobs=n_jobs,
            lublin=LublinConfig(quota_enabled=quota_enabled),
            p_dedicated=p_dedicated,
            p_extend=p_extend,
            p_reduce=p_reduce,
            p_cancel=p_cancel,
        )
        eager = CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))
        items = list(SyntheticWorkloadStream(config, seed=seed).stream())
        assert [i for i in items if isinstance(i, Job)] == eager.jobs
        assert [i for i in items if isinstance(i, ECC)] == eager.eccs

    def test_stream_is_time_ordered_with_eccs_after_their_jobs(self):
        items = list(SyntheticWorkloadStream(self.CONFIG, seed=3).stream())
        now = float("-inf")
        seen: set[int] = set()
        for item in items:
            time = item.submit if isinstance(item, Job) else item.issue_time
            assert time >= now
            now = time
            if isinstance(item, Job):
                seen.add(item.job_id)
            else:
                assert item.job_id in seen

    def test_quota_spill_loop_matches_eager(self):
        config = dataclasses.replace(
            self.CONFIG, lublin=LublinConfig(quota_enabled=True), n_jobs=150
        )
        eager = CWFWorkloadGenerator(config).generate(np.random.default_rng(5))
        jobs = [
            i for i in SyntheticWorkloadStream(config, seed=5).stream()
            if isinstance(i, Job)
        ]
        assert [j.submit for j in jobs] == [j.submit for j in eager.jobs]

    def test_stream_metadata(self):
        stream = SyntheticWorkloadStream(self.CONFIG, seed=0).stream()
        assert stream.n_jobs_hint == self.CONFIG.n_jobs
        assert stream.machine_size == self.CONFIG.machine_size
        assert "synthetic" in stream.description
