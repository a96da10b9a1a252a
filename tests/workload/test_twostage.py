"""Tests for the paper's two-stage uniform size model (§IV-D)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.twostage import TwoStageSizeConfig, TwoStageSizeModel


class TestConfig:
    def test_producible_sizes_match_paper(self):
        cfg = TwoStageSizeConfig()
        # "all small sized jobs are of size either 32, 64 or 96"
        assert cfg.small_sizes() == (32, 64, 96)
        # "the size of large jobs is either 128, 160, ..., or 320"
        assert cfg.large_sizes() == (128, 160, 192, 224, 256, 288, 320)
        assert cfg.max_size() == 320

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_small": 1.2},
            {"p_small": -0.1},
            {"granularity": 0},
            {"small_range": (3.0, 1.0)},
            {"large_range": (0.0, 10.0)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TwoStageSizeConfig(**kwargs)


class TestSampling:
    def test_all_samples_are_valid_sizes(self, rng):
        model = TwoStageSizeModel()
        valid = set(model.config.small_sizes()) | set(model.config.large_sizes())
        draw = model.sampler(rng)
        samples = {draw() for _ in range(3000)}
        assert samples <= valid
        assert all(s % 32 == 0 for s in samples)

    def test_p_small_extremes(self, rng):
        small_only = TwoStageSizeModel(TwoStageSizeConfig(p_small=1.0)).sampler(rng)
        assert all(small_only() <= 96 for _ in range(300))
        large_only = TwoStageSizeModel(TwoStageSizeConfig(p_small=0.0)).sampler(rng)
        assert all(large_only() >= 128 for _ in range(300))

    def test_small_fraction_tracks_p_small(self, rng):
        draw = TwoStageSizeModel(TwoStageSizeConfig(p_small=0.8)).sampler(rng)
        samples = [draw() for _ in range(8000)]
        small = sum(1 for s in samples if s <= 96) / len(samples)
        assert small == pytest.approx(0.8, abs=0.03)

    def test_rounding_weights_interior_values(self, rng):
        """round(U[1,3]) gives 64 twice the weight of 32 or 96."""
        draw = TwoStageSizeModel(TwoStageSizeConfig(p_small=1.0)).sampler(rng)
        samples = [draw() for _ in range(12000)]
        share_64 = sum(1 for s in samples if s == 64) / len(samples)
        share_32 = sum(1 for s in samples if s == 32) / len(samples)
        assert share_64 == pytest.approx(0.5, abs=0.03)
        assert share_32 == pytest.approx(0.25, abs=0.03)

    @pytest.mark.parametrize("p_small", [0.0, 0.3, 1.0])
    def test_sampler_is_numpy_uniform_bit_for_bit(self, p_small):
        """``lo + (hi - lo) * random()`` reads the bits ``rng.uniform``
        reads and computes the same double."""
        config = TwoStageSizeConfig(p_small=p_small, small_range=(1.0, 3.7))
        draw = TwoStageSizeModel(config).sampler(np.random.default_rng(5))
        rng = np.random.default_rng(5)

        def reference() -> int:
            branch = config.small_range if rng.random() < p_small else config.large_range
            return config.granularity * int(round(rng.uniform(*branch)))

        assert [draw() for _ in range(5000)] == [reference() for _ in range(5000)]

    def test_mean_size_closed_form(self, rng):
        for p_small in (0.2, 0.5, 0.8):
            model = TwoStageSizeModel(TwoStageSizeConfig(p_small=p_small))
            draw = model.sampler(rng)
            empirical = np.mean([draw() for _ in range(20000)])
            assert empirical == pytest.approx(model.mean_size(), rel=0.03)

    def test_paper_mean_sizes(self):
        """§V quotes n̄ for its P_S settings; the model's means match
        to within the sampling noise of a 500-job draw."""
        # P_S=0.5: paper reports n̄ = 139.35; closed form gives 144.
        assert TwoStageSizeModel(TwoStageSizeConfig(p_small=0.5)).mean_size() == 144.0
        # P_S=0.8: paper reports n̄ = 89.72; closed form gives 96.
        assert TwoStageSizeModel(TwoStageSizeConfig(p_small=0.8)).mean_size() == pytest.approx(96.0)
        # P_S=0.2: paper reports n̄ = 180.84; closed form gives 192.
        assert TwoStageSizeModel(TwoStageSizeConfig(p_small=0.2)).mean_size() == pytest.approx(192.0)
