"""Tests for the CWF workload generator."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.registry import make_scheduler
from repro.experiments.runner import simulate
from repro.workload.ecc import ECC, ECCKind
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, Workload
from repro.workload.job import Job, JobKind
from repro.workload.twostage import TwoStageSizeConfig
from tests.conftest import batch_job


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_jobs": -1},
            {"p_dedicated": 1.5},
            {"p_extend": -0.2},
            {"p_reduce": 2.0},
            {"estimate_factor": 0.5},
            {"dedicated_start_mean": 0.0},
            {"ecc_amount_mean": -1.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)

    def test_machine_must_fit_largest_job(self):
        with pytest.raises(ValueError, match="cannot fit"):
            GeneratorConfig(machine_size=256)  # largest two-stage job is 320

    def test_knob_copies(self):
        config = GeneratorConfig()
        assert config.with_beta_arr(0.42).lublin.beta_arr == 0.42
        assert config.with_p_small(0.8).size.p_small == 0.8
        # originals untouched (frozen dataclasses)
        assert config.lublin.beta_arr != 0.42 or config.size.p_small != 0.8


class TestGeneration:
    def test_batch_only_by_default(self, rng):
        workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=80)).generate(rng)
        assert len(workload) == 80
        assert not workload.dedicated_jobs
        assert not workload.eccs
        assert workload.machine_size == 320
        assert workload.granularity == 32

    def test_jobs_sorted_and_ids_unique(self, rng):
        workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=100)).generate(rng)
        submits = [j.submit for j in workload.jobs]
        assert submits == sorted(submits)
        assert len({j.job_id for j in workload.jobs}) == 100

    def test_sizes_and_times_valid(self, rng):
        workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=120)).generate(rng)
        for job in workload.jobs:
            assert job.num % 32 == 0 and 32 <= job.num <= 320
            assert job.estimate >= 1 and float(job.estimate).is_integer()
            assert job.submit >= 0 and float(job.submit).is_integer()

    def test_dedicated_fraction(self, rng):
        config = GeneratorConfig(n_jobs=600, p_dedicated=0.5)
        workload = CWFWorkloadGenerator(config).generate(rng)
        fraction = len(workload.dedicated_jobs) / len(workload)
        assert fraction == pytest.approx(0.5, abs=0.07)
        for job in workload.dedicated_jobs:
            assert job.requested_start is not None
            assert job.requested_start > job.submit

    def test_ecc_injection_rates(self, rng):
        config = GeneratorConfig(n_jobs=800, p_extend=0.2, p_reduce=0.1)
        workload = CWFWorkloadGenerator(config).generate(rng)
        ets = [e for e in workload.eccs if e.kind is ECCKind.EXTEND_TIME]
        rts = [e for e in workload.eccs if e.kind is ECCKind.REDUCE_TIME]
        assert len(ets) / 800 == pytest.approx(0.2, abs=0.05)
        assert len(rts) / 800 == pytest.approx(0.1, abs=0.04)
        job_ids = {j.job_id for j in workload.jobs}
        for ecc in workload.eccs:
            assert ecc.job_id in job_ids
            assert ecc.amount > 0

    def test_ecc_amounts_scale_with_estimates(self, rng):
        config = GeneratorConfig(n_jobs=4000, p_extend=1.0, integral_times=False)
        workload = CWFWorkloadGenerator(config).generate(rng)
        by_id = {j.job_id: j for j in workload.jobs}
        ratios = [ecc.amount / by_id[ecc.job_id].estimate for ecc in workload.eccs]
        assert len(ratios) == 4000
        assert np.mean(ratios) == pytest.approx(config.ecc_amount_mean, rel=0.06)

    def test_ecc_issue_after_submit(self, rng):
        config = GeneratorConfig(n_jobs=300, p_extend=0.5)
        workload = CWFWorkloadGenerator(config).generate(rng)
        by_id = {j.job_id: j for j in workload.jobs}
        assert workload.eccs
        for ecc in workload.eccs:
            assert ecc.issue_time >= by_id[ecc.job_id].submit

    def test_estimate_factor_separates_estimate_from_actual(self, rng):
        config = GeneratorConfig(n_jobs=50, estimate_factor=2.0)
        workload = CWFWorkloadGenerator(config).generate(rng)
        for job in workload.jobs:
            assert job.estimate == pytest.approx(2.0 * job.actual, abs=1.0)

    def test_determinism(self):
        config = GeneratorConfig(n_jobs=60, p_dedicated=0.3, p_extend=0.2)
        a = CWFWorkloadGenerator(config).generate(np.random.default_rng(5))
        b = CWFWorkloadGenerator(config).generate(np.random.default_rng(5))
        assert [(j.job_id, j.submit, j.num, j.estimate) for j in a.jobs] == [
            (j.job_id, j.submit, j.num, j.estimate) for j in b.jobs
        ]
        assert a.eccs == b.eccs


class TestWorkloadOperations:
    def test_iteration_feeds_fresh_copies_in_time_order(self):
        workload = CWFWorkloadGenerator(
            GeneratorConfig(n_jobs=40, p_extend=0.5, p_reduce=0.3)
        ).generate(np.random.default_rng(3))
        feed = list(workload)
        jobs = [item for item in feed if isinstance(item, Job)]
        assert [j.job_id for j in jobs] == [j.job_id for j in workload.jobs]
        assert not any(a is b for a, b in zip(jobs, workload.jobs))
        assert [item for item in feed if isinstance(item, ECC)] == workload.eccs
        times = [
            item.issue_time if isinstance(item, ECC) else item.submit for item in feed
        ]
        assert times == sorted(times)
        seen = set()
        for item in feed:
            if isinstance(item, ECC):
                assert item.job_id in seen  # a command follows its job
            else:
                seen.add(item.job_id)
        jobs[0].start_time = 123.0
        assert next(iter(workload)).start_time is None  # re-iterable

    def test_run_leaves_workload_unchanged(self):
        workload = CWFWorkloadGenerator(
            GeneratorConfig(n_jobs=60, p_extend=0.4, p_reduce=0.2)
        ).generate(np.random.default_rng(5))
        before = copy.deepcopy(workload)
        first = simulate(workload, make_scheduler("LOS-E"))
        assert workload == before
        assert simulate(workload, make_scheduler("LOS-E")) == first

    def test_scale_arrivals_changes_load_not_packing(self, small_batch_workload):
        stretched = small_batch_workload.scale_arrivals(2.0)
        assert stretched.offered_load() < small_batch_workload.offered_load()
        assert [j.num for j in stretched.jobs] == [j.num for j in small_batch_workload.jobs]
        assert [j.estimate for j in stretched.jobs] == [
            j.estimate for j in small_batch_workload.jobs
        ]
        assert [j.submit for j in stretched.jobs] == [
            j.submit * 2.0 for j in small_batch_workload.jobs
        ]

    def test_scale_arrivals_preserves_dedicated_offsets(self, rng):
        config = GeneratorConfig(n_jobs=60, p_dedicated=0.5)
        workload = CWFWorkloadGenerator(config).generate(rng)
        scaled = workload.scale_arrivals(3.0)
        for before, after in zip(workload.dedicated_jobs, scaled.dedicated_jobs):
            assert after.requested_start - after.submit == pytest.approx(
                before.requested_start - before.submit
            )

    def test_scale_arrivals_rejects_nonpositive(self, small_batch_workload):
        with pytest.raises(ValueError, match="positive"):
            small_batch_workload.scale_arrivals(0.0)

    def test_batch_and_dedicated_partitions(self, small_hetero_workload):
        batch = small_hetero_workload.batch_jobs
        dedicated = small_hetero_workload.dedicated_jobs
        assert len(batch) + len(dedicated) == len(small_hetero_workload)
        assert all(not j.is_dedicated for j in batch)
        assert all(j.is_dedicated for j in dedicated)

    def test_workload_sorts_inputs(self):
        workload = Workload(
            jobs=[batch_job(2, submit=50.0), batch_job(1, submit=10.0)],
            machine_size=320,
            granularity=32,
        )
        assert [j.job_id for j in workload.jobs] == [1, 2]


class TestCancellationKnob:
    def test_p_cancel_marks_jobs(self, rng):
        config = GeneratorConfig(n_jobs=600, p_cancel=0.3)
        workload = CWFWorkloadGenerator(config).generate(rng)
        marked = [j for j in workload.jobs if j.cancel_at is not None]
        assert len(marked) / 600 == pytest.approx(0.3, abs=0.06)
        for job in marked:
            assert job.cancel_at > job.submit

    def test_p_cancel_zero_marks_none(self, rng):
        workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=100)).generate(rng)
        assert all(j.cancel_at is None for j in workload.jobs)

    def test_invalid_p_cancel_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(p_cancel=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(cancel_mean_fraction=0.0)

    def test_cancelled_workload_simulates(self, rng):
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import simulate

        config = GeneratorConfig(n_jobs=100, p_cancel=0.3, cancel_mean_fraction=0.1)
        workload = CWFWorkloadGenerator(config).generate(rng)
        metrics = simulate(workload, make_scheduler("Delayed-LOS"))
        assert metrics.n_jobs + metrics.n_cancelled == 100
