"""Unit tests for the fault/retry value objects and the CLI spec."""

from __future__ import annotations

import math

import pytest

from repro.faults.model import (
    FaultConfig,
    RetryPolicy,
    format_faults_spec,
    parse_faults_spec,
)


class TestFaultConfig:
    def test_defaults_disable_everything(self) -> None:
        config = FaultConfig()
        assert not config.node_faults_enabled
        assert not config.job_faults_enabled
        assert not config.enabled

    def test_mtbf_enables_node_faults(self) -> None:
        config = FaultConfig(mtbf=86400.0, mttr=3600.0)
        assert config.node_faults_enabled
        assert config.enabled

    def test_pfail_enables_job_faults(self) -> None:
        assert FaultConfig(p_job_fail=0.1).job_faults_enabled
        assert FaultConfig(poison_jobs=(3,)).job_faults_enabled

    def test_poison_jobs_normalized(self) -> None:
        config = FaultConfig(poison_jobs=(9, 3, 9, 3))
        assert config.poison_jobs == (3, 9)

    def test_equal_configs_hash_equally(self) -> None:
        a = FaultConfig(mtbf=100.0, poison_jobs=(2, 1))
        b = FaultConfig(mtbf=100.0, poison_jobs=(1, 2, 2))
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mtbf": -1.0},
            {"mtbf": 100.0, "mttr": 0.0},
            {"mtbf": 100.0, "mttr": -5.0},
            {"p_job_fail": -0.1},
            {"p_job_fail": 1.5},
            {"seed": -1},
            {"mtbf": math.nan},
            {"mtbf": math.inf},
            {"mtbf": 1000.0, "mttr": math.nan},
            {"mtbf": 1000.0, "mttr": math.inf},
            {"mtbf": 0.0, "mttr": math.nan},
        ],
    )
    def test_validation(self, kwargs: dict) -> None:
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_mttr_ignored_without_node_faults(self) -> None:
        # mtbf=0 disables the repair process, so mttr need not be positive.
        assert not FaultConfig(mtbf=0.0, mttr=0.0).enabled


class TestRetryPolicy:
    def test_defaults(self) -> None:
        policy = RetryPolicy()
        assert policy.max_retries == 3
        assert policy.backoff == 0.0
        assert not policy.checkpoint

    def test_delay_is_exponential(self) -> None:
        policy = RetryPolicy(backoff=60.0, backoff_factor=2.0)
        assert policy.delay(1) == 60.0
        assert policy.delay(2) == 120.0
        assert policy.delay(3) == 240.0

    def test_zero_backoff_requeues_immediately(self) -> None:
        assert RetryPolicy(backoff=0.0).delay(5) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff": -1.0},
            {"backoff_factor": 0.5},
            {"backoff": math.nan},
            {"backoff": math.inf},
            {"backoff_factor": math.nan},
            {"backoff_factor": math.inf},
        ],
    )
    def test_validation(self, kwargs: dict) -> None:
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delay_rejects_bad_attempt(self) -> None:
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # 1e308 * 2**2 overflows to inf.
            {"backoff": 1e308},
            # 2.0**2000 raises OverflowError rather than returning inf.
            {"backoff": 1.0, "max_retries": 2001},
            {"backoff": 1e10, "backoff_factor": 1e300, "max_retries": 2},
        ],
        ids=["backoff-product-inf", "power-raises", "factor-product-inf"],
    )
    def test_overflowing_backoff_is_rejected(self, kwargs: dict) -> None:
        with pytest.raises(ValueError, match="must be finite"):
            RetryPolicy(**kwargs)

    def test_largest_finite_delay_is_accepted(self) -> None:
        policy = RetryPolicy(backoff=1e300, backoff_factor=10.0, max_retries=3)
        assert policy.delay(3) == pytest.approx(1e302)
        # A single retry never multiplies: the backoff itself is the delay.
        assert RetryPolicy(backoff=1e308, max_retries=1).delay(1) == 1e308

    def test_zero_backoff_is_valid_for_any_budget(self) -> None:
        policy = RetryPolicy(backoff=0.0, max_retries=100_000)
        assert policy.delay(100_000) == 0.0


class TestFaultsSpec:
    def test_full_spec(self) -> None:
        config = parse_faults_spec("mtbf=86400,mttr=3600,seed=7,pfail=0.02,poison=3|9")
        assert config == FaultConfig(
            mtbf=86400.0, mttr=3600.0, seed=7, p_job_fail=0.02, poison_jobs=(3, 9)
        )

    def test_partial_spec_uses_defaults(self) -> None:
        config = parse_faults_spec("pfail=0.5")
        assert config.p_job_fail == 0.5
        assert not config.node_faults_enabled

    def test_whitespace_and_case_tolerated(self) -> None:
        config = parse_faults_spec(" MTBF = 100 , seed = 2 ")
        assert config.mtbf == 100.0
        assert config.seed == 2

    @pytest.mark.parametrize(
        "spec,fragment",
        [
            ("mtbf", "key=value"),
            ("mtbf=", "key=value"),
            ("bogus=1", "unknown key"),
            ("mtbf=1,mtbf=2", "duplicate key"),
            ("mtbf=abc", "bad value"),
            ("poison=1|x", "bad value"),
        ],
    )
    def test_malformed_specs(self, spec: str, fragment: str) -> None:
        with pytest.raises(ValueError, match=fragment):
            parse_faults_spec(spec)

    @pytest.mark.parametrize(
        "config",
        [
            FaultConfig(mtbf=86400.0, mttr=3600.0, seed=7),
            FaultConfig(p_job_fail=0.25, seed=1),
            FaultConfig(mtbf=50000.0, mttr=300.0, p_job_fail=0.1, poison_jobs=(4, 8)),
            FaultConfig(),
        ],
    )
    def test_format_parse_round_trip(self, config: FaultConfig) -> None:
        assert parse_faults_spec(format_faults_spec(config)) == config
