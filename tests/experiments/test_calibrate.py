"""Tests for load calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.calibrate import calibrate_beta_arr
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.lublin import LublinConfig
from repro.workload.twostage import TwoStageSizeConfig
from tests.experiments.calibrate_reference import reference_calibrate


@pytest.fixture(scope="module")
def config():
    return GeneratorConfig(n_jobs=120)


class TestCalibration:
    @pytest.mark.parametrize("target", [0.6, 0.9])
    def test_hits_target_within_tolerance(self, config, target):
        result = calibrate_beta_arr(config, target, seed=3, tolerance=0.02)
        assert result.achieved_load == pytest.approx(target, abs=0.025)
        assert result.workload.offered_load() == result.achieved_load

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


probability = st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0])


@st.composite
def generator_configs(draw):
    return GeneratorConfig(
        n_jobs=draw(st.sampled_from([0, 1, 2, 7, 40, 150])),
        size=TwoStageSizeConfig(p_small=draw(st.sampled_from([0.2, 0.5, 0.8]))),
        lublin=LublinConfig(quota_enabled=draw(st.booleans())),
        p_dedicated=draw(probability),
        p_extend=draw(probability),
        p_reduce=draw(probability),
        p_cancel=draw(probability),
        estimate_factor=draw(st.sampled_from([1.0, 1.5, 3.0])),
        integral_times=draw(st.booleans()),
    )


def job_key(job):
    return (
        job.job_id, job.submit, job.num, job.estimate, job.actual, job.kind,
        job.requested_start, job.cancel_at,
    )


DIFFERENTIAL = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestProbeMatchesGeneration:
    """The calibrator's probes against full generations, bit for bit."""

    @DIFFERENTIAL
    @given(
        config=generator_configs(),
        seed=st.integers(0, 2**31 - 1),
        betas=st.lists(st.floats(0.2, 1.3), min_size=1, max_size=4),
    )
    def test_probe_load_is_the_generated_load(self, config, seed, betas):
        probe = CWFWorkloadGenerator(config).load_probe(np.random.default_rng(seed))
        for beta in betas:
            generated = CWFWorkloadGenerator(config.with_beta_arr(beta)).generate(
                np.random.default_rng(seed)
            )
            assert probe.load(beta) == generated.offered_load()

    @DIFFERENTIAL
    @given(
        config=generator_configs(),
        seed=st.integers(0, 2**31 - 1),
        target=st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.9, 1.0, 1.3]),
        tolerance=st.sampled_from([1e-6, 0.005, 0.02]),
    )
    def test_calibration_matches_the_full_generation_bisection(
        self, config, seed, target, tolerance
    ):
        try:
            expected = reference_calibrate(config, target, seed, tolerance=tolerance)
        except ValueError as error:
            with pytest.raises(ValueError, match=str(error)):
                calibrate_beta_arr(config, target, seed, tolerance=tolerance)
            return
        result = calibrate_beta_arr(config, target, seed, tolerance=tolerance)
        beta_arr, load, workload = expected
        assert (result.beta_arr, result.achieved_load) == (beta_arr, load)
        assert [job_key(j) for j in result.workload.jobs] == [job_key(j) for j in workload.jobs]
        assert result.workload.eccs == workload.eccs
        assert result.workload.offered_load() == result.achieved_load

    def test_exhausted_budget_returns_the_best_probe(self, config):
        # Two bisection steps cannot reach a 1e-9 tolerance: the best
        # probe's beta_arr and workload come back, as in the reference.
        result = calibrate_beta_arr(config, 0.8, seed=5, tolerance=1e-9, max_iterations=2)
        beta_arr, load, workload = reference_calibrate(
            config, 0.8, 5, tolerance=1e-9, max_iterations=2
        )
        assert (result.beta_arr, result.achieved_load) == (beta_arr, load)
        assert [job_key(j) for j in result.workload.jobs] == [job_key(j) for j in workload.jobs]

    def test_a_probe_that_disagrees_is_refused(self, config, monkeypatch):
        from repro.workload.generator import LoadProbe

        load = LoadProbe.load
        monkeypatch.setattr(LoadProbe, "load", lambda probe, beta: load(probe, beta) * (1 + 1e-12))
        with pytest.raises(RuntimeError, match="load probe disagrees"):
            calibrate_beta_arr(config, 0.8, seed=5)
