"""Statistical tests for the distribution building blocks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.workload.distributions import HyperGamma, log2_gamma_mean, two_stage_uniform
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.lublin import LublinConfig, LublinModel


def _log2_runtimes(rng, n, **mixture) -> np.ndarray:
    """``n`` runtime-model draws, as the log2 the hyper-Gamma samples.

    The runtime sampler is the one hyper-Gamma draw: with ``pa = 0``
    its first-component probability is ``pb`` for every size.
    """
    config = LublinConfig(pa=0.0, min_runtime=1.0, max_runtime=2.0**60, **mixture)
    draw = LublinModel(config).runtime_sampler(rng)
    return np.log2([draw(64) for _ in range(n)])


class TestTwoStageUniform:
    def test_bounds(self, rng):
        samples = [two_stage_uniform(1.0, 3.0, 10.0, 0.5, rng) for _ in range(2000)]
        assert all(1.0 <= s <= 10.0 for s in samples)

    def test_mixing_probability(self, rng):
        samples = [two_stage_uniform(0.0, 1.0, 2.0, 0.8, rng) for _ in range(8000)]
        low_fraction = sum(1 for s in samples if s <= 1.0) / len(samples)
        assert low_fraction == pytest.approx(0.8, abs=0.03)

    def test_prob_extremes(self, rng):
        assert all(
            two_stage_uniform(0.0, 1.0, 2.0, 1.0, rng) <= 1.0 for _ in range(200)
        )
        assert all(
            two_stage_uniform(0.0, 1.0, 2.0, 0.0, rng) >= 1.0 for _ in range(200)
        )

    def test_invalid_ordering_rejected(self, rng):
        with pytest.raises(ValueError, match="low <= med <= high"):
            two_stage_uniform(3.0, 1.0, 5.0, 0.5, rng)

    def test_invalid_prob_rejected(self, rng):
        with pytest.raises(ValueError, match="prob"):
            two_stage_uniform(0.0, 1.0, 2.0, 1.5, rng)


class TestGamma:
    """Gamma(shape, scale) draws, through the models that make them."""

    def test_mean_matches_shape_times_scale(self, rng):
        samples = _log2_runtimes(rng, 20000, alpha1=4.2, beta1=0.94, pb=1.0)
        assert np.mean(samples) == pytest.approx(4.2 * 0.94, rel=0.05)

    def test_positive(self, rng):
        gaps, _ = LublinModel(LublinConfig(alpha_arr=2.0)).arrival_draws(100, rng)
        assert all(gap > 0 for gap in gaps)

    @pytest.mark.parametrize("shape,scale", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_invalid_params_rejected(self, rng, shape, scale):
        """Checked once, when the config or model is built."""
        with pytest.raises(ValueError):
            LublinConfig(alpha_num=shape, beta_num=scale)
        with pytest.raises(ValueError):
            LublinModel(LublinConfig(alpha1=shape, beta1=scale))
        if scale == 1.0:
            with pytest.raises(ValueError):
                LublinConfig(alpha_arr=shape)


class TestHyperGamma:
    def test_mixture_mean(self, rng):
        hg = HyperGamma(4.2, 0.94, 312.0, 0.03)
        samples = _log2_runtimes(rng, 20000, pb=0.5)
        assert np.mean(samples) == pytest.approx(hg.mean(0.5), rel=0.05)

    def test_p_extremes_select_components(self, rng):
        params = dict(alpha1=100.0, beta1=0.01, alpha2=400.0, beta2=0.1)  # means 1 and 40
        only_first = _log2_runtimes(rng, 500, pb=1.0, **params)
        only_second = _log2_runtimes(rng, 500, pb=0.0, **params)
        assert np.mean(only_first) == pytest.approx(1.0, rel=0.2)
        assert np.mean(only_second) == pytest.approx(40.0, rel=0.2)

    def test_p_clipped_outside_unit_interval(self, rng):
        hg = HyperGamma(100.0, 0.01, 400.0, 0.1)
        params = dict(alpha1=100.0, beta1=0.01, alpha2=400.0, beta2=0.1)
        # p = -3 behaves as p = 0 (second component only).
        assert np.mean(_log2_runtimes(rng, 300, pb=-3.0, **params)) > 20
        assert hg.mean(-3.0) == hg.mean(0.0)
        assert hg.mean(7.0) == hg.mean(1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            HyperGamma(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            LublinModel(LublinConfig(beta2=-1.0))


class TestLog2GammaMean:
    def test_matches_empirical_mean(self, rng):
        shape, scale = 13.2303, 0.45
        theory = log2_gamma_mean(shape, scale)
        samples = 2.0 ** rng.gamma(shape, scale, size=40000)
        assert np.mean(samples) == pytest.approx(theory, rel=0.1)

    def test_divergence_boundary(self):
        # MGF at ln2 diverges when scale >= 1/ln2.
        assert log2_gamma_mean(1.0, 1.0 / math.log(2.0)) == math.inf
        assert math.isfinite(log2_gamma_mean(1.0, 1.0))


class TestExponential:
    """Exponential draws, through the generator's dedicated start offsets."""

    def test_mean(self, rng):
        config = GeneratorConfig(
            n_jobs=4000, p_dedicated=1.0, dedicated_start_mean=600.0, integral_times=False
        )
        workload = CWFWorkloadGenerator(config).generate(rng)
        offsets = [job.requested_start - job.submit for job in workload.jobs]
        assert np.mean(offsets) == pytest.approx(600.0, rel=0.05)

    def test_invalid_mean_rejected(self, rng):
        with pytest.raises(ValueError, match="positive"):
            GeneratorConfig(dedicated_start_mean=0.0)
