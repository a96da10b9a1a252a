"""Tests for the Lublin–Feitelson workload model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.lublin import SECONDS_PER_HOUR, LublinConfig, LublinModel


class TestConfig:
    def test_paper_defaults(self):
        cfg = LublinConfig()
        # Table I.
        assert cfg.alpha1 == 4.2 and cfg.beta1 == 0.94
        assert cfg.alpha2 == 312 and cfg.beta2 == 0.03
        assert cfg.pa == -0.0054 and cfg.pb == 0.78
        # Table II.
        assert cfg.alpha_arr == 13.2303
        assert cfg.alpha_num == 15.1737 and cfg.beta_num == 0.9631
        assert cfg.arar == 1.0225

    def test_derived_log2_bounds(self):
        cfg = LublinConfig(max_nodes=128)
        assert cfg.uhi == 7.0
        assert cfg.umed == pytest.approx(4.5)

    def test_umed_never_below_ulow(self):
        cfg = LublinConfig(max_nodes=2, umed_offset=10.0)
        assert cfg.umed == cfg.ulow

    def test_with_beta_arr(self):
        cfg = LublinConfig().with_beta_arr(0.61)
        assert cfg.beta_arr == 0.61
        assert cfg.alpha_arr == 13.2303  # everything else preserved

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_nodes": 0},
            {"serial_prob": 1.5},
            {"pow2_prob": -0.1},
            {"beta_arr": 0.0},
            {"rush_start_hour": 18, "rush_end_hour": 8},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LublinConfig(**kwargs)


class TestSizeModel:
    def test_sizes_within_machine(self, rng):
        model = LublinModel(LublinConfig(max_nodes=320))
        sizes = [model.sample_size(rng) for _ in range(3000)]
        assert all(1 <= s <= 320 for s in sizes)

    def test_serial_fraction(self, rng):
        model = LublinModel(LublinConfig(max_nodes=128, serial_prob=0.244))
        sizes = [model.sample_size(rng) for _ in range(8000)]
        serial = sum(1 for s in sizes if s == 1) / len(sizes)
        # Two-stage draws can also round to 1, so >= serial_prob.
        assert serial == pytest.approx(0.244, abs=0.05)

    def test_power_of_two_bias(self, rng):
        model = LublinModel(LublinConfig(max_nodes=128))
        sizes = [model.sample_size(rng) for _ in range(5000)]
        parallel = [s for s in sizes if s > 1]
        pow2 = sum(1 for s in parallel if s & (s - 1) == 0) / len(parallel)
        assert pow2 > 0.55  # pow2_prob=0.576 plus rounding coincidences

    def test_single_node_machine(self, rng):
        model = LublinModel(LublinConfig(max_nodes=1))
        assert all(model.sample_size(rng) == 1 for _ in range(50))


class TestRuntimeModel:
    def test_runtime_bounds_respected(self, rng):
        cfg = LublinConfig(min_runtime=10.0, max_runtime=1000.0)
        model = LublinModel(cfg)
        draw = model.runtime_sampler(rng)
        runtimes = [draw(64) for _ in range(2000)]
        assert all(10.0 <= r <= 1000.0 for r in runtimes)

    def test_size_correlation(self, rng):
        """Larger jobs skew to the long-runtime component (p shrinks)."""
        model = LublinModel(LublinConfig())
        draw = model.runtime_sampler(rng)
        small = np.mean([draw(8) for _ in range(4000)])
        large = np.mean([draw(320) for _ in range(4000)])
        assert large > small

    def test_first_component_prob_linear_and_clipped(self):
        model = LublinModel(LublinConfig())
        assert model.first_component_prob(0) == pytest.approx(0.78)
        assert model.first_component_prob(100) == pytest.approx(0.78 - 0.54)
        assert model.first_component_prob(1000) == 0.0  # clipped


class TestArrivalProcess:
    def test_arrivals_sorted_and_positive(self, rng):
        model = LublinModel(LublinConfig())
        arrivals = model.sample_arrivals(300, rng)
        assert len(arrivals) == 300
        assert all(a > 0 for a in arrivals)
        assert arrivals == sorted(arrivals)

    def test_beta_arr_controls_rate(self):
        """Larger β_arr → longer gaps → later last arrival (lower load)."""
        fast = LublinModel(LublinConfig(beta_arr=0.41))
        slow = LublinModel(LublinConfig(beta_arr=0.61))
        fast_span = fast.sample_arrivals(200, np.random.default_rng(1))[-1]
        slow_span = slow.sample_arrivals(200, np.random.default_rng(1))[-1]
        assert slow_span > fast_span

    def test_rush_hours_have_shorter_gaps(self, rng):
        model = LublinModel(LublinConfig(arar=3.0))  # exaggerate for the test
        arrivals = np.array([0.0] + model.sample_arrivals(4000, rng))
        gaps = np.diff(arrivals)
        hours = (arrivals[:-1] / SECONDS_PER_HOUR) % 24.0
        rush = (8 <= hours) & (hours < 18)
        assert gaps[~rush].mean() > gaps[rush].mean()

    def test_arrival_draws_follow_their_gammas(self, rng):
        cfg = LublinConfig()
        gaps, quotas = LublinModel(cfg).arrival_draws(20000, rng)
        assert np.mean(list(gaps)) == pytest.approx(cfg.alpha_arr, rel=0.02)
        counts = [next(quotas) for _ in range(20000)]
        assert min(counts) >= 1
        assert np.mean(counts) == pytest.approx(cfg.alpha_num * cfg.beta_num, rel=0.02)

    def test_count_validation(self, rng):
        model = LublinModel(LublinConfig())
        with pytest.raises(ValueError, match="non-negative"):
            model.sample_arrivals(-1, rng)
        assert model.sample_arrivals(0, rng) == []

    def test_determinism(self):
        model = LublinModel(LublinConfig())
        a = model.sample(50, np.random.default_rng(42))
        b = model.sample(50, np.random.default_rng(42))
        assert [(s.arrival, s.size, s.runtime) for s in a] == [
            (s.arrival, s.size, s.runtime) for s in b
        ]


class TestFullTrace:
    def test_sample_produces_complete_jobs(self, rng):
        model = LublinModel(LublinConfig(max_nodes=320))
        trace = model.sample(100, rng)
        assert len(trace) == 100
        for sample in trace:
            assert sample.arrival >= 0
            assert 1 <= sample.size <= 320
            assert sample.runtime >= 1.0
