"""Tests for load calibration."""

from __future__ import annotations

import math

import pytest

from repro.experiments.calibrate import calibrate_beta_arr
from repro.workload.generator import GeneratorConfig


@pytest.fixture(scope="module")
def config():
    return GeneratorConfig(n_jobs=120)


class TestCalibration:
    @pytest.mark.parametrize("target", [0.6, 0.9])
    def test_hits_target_within_tolerance(self, config, target):
        result = calibrate_beta_arr(config, target, seed=3, tolerance=0.02)
        assert result.achieved_load == pytest.approx(target, abs=0.025)
        assert result.workload.offered_load() == pytest.approx(result.achieved_load)

    def test_deterministic(self, config):
        a = calibrate_beta_arr(config, 0.8, seed=5)
        b = calibrate_beta_arr(config, 0.8, seed=5)
        assert a.beta_arr == b.beta_arr
        assert a.achieved_load == b.achieved_load

    def test_monotone_beta_vs_load(self, config):
        low = calibrate_beta_arr(config, 0.5, seed=7)
        high = calibrate_beta_arr(config, 0.95, seed=7)
        # Higher load needs faster arrivals (smaller beta_arr).
        assert high.beta_arr < low.beta_arr

    def test_unreachable_high_target_rejected(self, config):
        with pytest.raises(ValueError, match="achievable maximum"):
            calibrate_beta_arr(config, 50.0, seed=1, low=0.5, high=0.9)

    def test_unreachable_low_target_rejected(self, config):
        with pytest.raises(ValueError, match="achievable minimum"):
            calibrate_beta_arr(config, 0.001, seed=1, low=0.4, high=0.6)

    def test_nonpositive_target_rejected(self, config):
        with pytest.raises(ValueError, match="positive"):
            calibrate_beta_arr(config, 0.0, seed=1)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -0.5])
    def test_non_finite_or_negative_target_rejected(self, config, target):
        with pytest.raises(ValueError, match="finite and positive"):
            calibrate_beta_arr(config, target, seed=1)

    def test_paper_beta_range_brackets_paper_loads(self):
        """Table II: β_arr in [0.4101, 0.6101] should span loads well
        around the paper's [0.5, 1] interval for the paper's workload
        (N=500, P_S mixes)."""
        config = GeneratorConfig(n_jobs=300)
        result_low = calibrate_beta_arr(config, 0.5, seed=11)
        result_high = calibrate_beta_arr(config, 1.0, seed=11)
        # The calibrated knobs land in a plausible neighbourhood of the
        # paper's range (we don't pin exact values — different draws).
        assert 0.3 <= result_high.beta_arr < result_low.beta_arr <= 1.0
