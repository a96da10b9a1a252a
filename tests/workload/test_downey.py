"""Tests for the Downey workload model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.workload.downey import DowneyConfig, DowneyModel, calibrate_downey


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"machine_size": 0},
            {"machine_size": 100, "granularity": 32},
            {"lifetime_lo": 10.0, "lifetime_hi": 5.0},
            {"mean_interarrival": 0.0},
            {"max_parallelism_fraction": 0.0},
            {"max_parallelism_fraction": 1.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DowneyConfig(**kwargs)

    def test_load_knob_copy(self):
        config = DowneyConfig().with_mean_interarrival(60.0)
        assert config.mean_interarrival == 60.0


class TestSampling:
    def test_parallelism_bounds_and_granularity(self, rng):
        model = DowneyModel(DowneyConfig())
        for _ in range(500):
            num = model.sample_parallelism(rng)
            assert 32 <= num <= 320
            assert num % 32 == 0

    def test_parallelism_skews_small(self, rng):
        """Log-uniform: small requests dominate."""
        model = DowneyModel(DowneyConfig())
        sizes = [model.sample_parallelism(rng) for _ in range(3000)]
        small = sum(1 for s in sizes if s <= 96) / len(sizes)
        assert small > 0.5

    def test_lifetime_log_uniform_bounds(self, rng):
        config = DowneyConfig(lifetime_lo=100.0, lifetime_hi=1.0e5)
        model = DowneyModel(config)
        samples = [model.sample_lifetime(rng) for _ in range(2000)]
        assert all(100.0 <= s <= 1.0e5 for s in samples)
        # Log-space median near the geometric mean of the bounds.
        assert np.median(samples) == pytest.approx(np.sqrt(100.0 * 1.0e5), rel=0.4)

    def test_parallelism_cap(self, rng):
        model = DowneyModel(DowneyConfig(max_parallelism_fraction=0.5))
        assert all(model.sample_parallelism(rng) <= 160 for _ in range(300))


class TestGeneration:
    def test_complete_workload(self, rng):
        workload = DowneyModel().generate(100, rng)
        assert len(workload) == 100
        assert workload.granularity == 32
        submits = [j.submit for j in workload.jobs]
        assert submits == sorted(submits)
        for job in workload.jobs:
            assert job.estimate >= 1.0

    def test_runtime_is_lifetime_over_parallelism(self, rng):
        """Bigger partitions of the same work finish faster — check the
        aggregate correlation sign."""
        workload = DowneyModel().generate(2000, rng)
        small = [j.estimate for j in workload.jobs if j.num <= 64]
        large = [j.estimate for j in workload.jobs if j.num >= 256]
        assert np.median(small) > np.median(large)

    def test_determinism(self):
        a = DowneyModel().generate(50, np.random.default_rng(4))
        b = DowneyModel().generate(50, np.random.default_rng(4))
        assert [(j.submit, j.num, j.estimate) for j in a.jobs] == [
            (j.submit, j.num, j.estimate) for j in b.jobs
        ]

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            DowneyModel().generate(-1, rng)


class TestCalibration:
    def test_hits_target_load(self):
        workload = calibrate_downey(0.8, n_jobs=150, seed=3)
        assert workload.offered_load() == pytest.approx(0.8, abs=0.06)

    def test_simulatable_under_all_batch_families(self):
        from repro.core.registry import make_scheduler
        from repro.experiments.runner import simulate

        workload = calibrate_downey(0.9, n_jobs=80, seed=5)
        for name in ("EASY", "LOS", "Delayed-LOS"):
            metrics = simulate(workload, make_scheduler(name))
            assert metrics.n_jobs == 80

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            calibrate_downey(0.0, n_jobs=10, seed=1)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match="finite and positive"):
            calibrate_downey(target, n_jobs=10, seed=1)
