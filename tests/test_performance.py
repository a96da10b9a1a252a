"""Performance regression guards.

The whole point of bounding the DP lookahead ([7]) is tractability;
these tests keep the implementation honest about it.  Budgets carry
~10x headroom over current measurements so they only trip on genuine
regressions (e.g. accidentally quadratic queue operations or a
per-cycle DP table blow-up), not on machine noise.

Current reference timings (this machine): a paper-scale 500-job run
completes in ~0.05-0.2 s per algorithm; a full figure sweep in ~1-2 s.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.registry import make_scheduler
from repro.experiments.calibrate import calibrate_beta_arr
from repro.experiments.figures import PAPER_LOADS
from repro.experiments.runner import SimulationRunner, simulate
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, LoadProbe
from repro.workload.sdsc import generate_sdsc_like
from repro.workload.twostage import TwoStageSizeConfig


def timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def paper_scale_workload():
    config = GeneratorConfig(n_jobs=500, size=TwoStageSizeConfig(p_small=0.5))
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(42))


class TestSimulationThroughput:
    @pytest.mark.parametrize("name", ["EASY", "LOS", "Delayed-LOS", "CONSERVATIVE"])
    def test_paper_scale_run_under_budget(self, paper_scale_workload, name):
        elapsed = timed(lambda: simulate(paper_scale_workload, make_scheduler(name)))
        assert elapsed < 5.0, f"{name} took {elapsed:.2f}s for 500 jobs"

    def test_fine_granularity_run_under_budget(self):
        """The SDSC-like machine (granularity 1, 128 procs) exercises
        the largest DP tables (128x128 per reservation cycle)."""
        workload = generate_sdsc_like(500, np.random.default_rng(7))
        elapsed = timed(lambda: simulate(workload, make_scheduler("Delayed-LOS")))
        assert elapsed < 10.0, f"{elapsed:.2f}s for the fine-granularity run"

    def test_large_workload_scales_roughly_linearly(self):
        """2000 jobs must not take quadratically longer than 500."""
        config = GeneratorConfig(n_jobs=2000, size=TwoStageSizeConfig(p_small=0.5))
        workload = CWFWorkloadGenerator(config).generate(np.random.default_rng(3))
        elapsed = timed(lambda: simulate(workload, make_scheduler("Delayed-LOS")))
        assert elapsed < 20.0, f"{elapsed:.2f}s for 2000 jobs"


class TestStreamingScalingFlatness:
    """Per-event cost must not grow with total job count.

    The streaming tier's original cliff (117k events/s at 1k jobs
    down to 7k at 1M) came from per-cycle work linear in queue and
    history size.  This guard replays two synthetic streams 5x apart
    and bounds the per-event wall-time ratio: flat engines score ~1x;
    the pre-fix engine scored well over the bound at this spread.
    """

    @pytest.mark.perf
    def test_per_event_cost_flat_10k_vs_50k(self):
        from repro.workload.streaming import SyntheticWorkloadStream

        def per_event_seconds(n_jobs: int) -> float:
            config = GeneratorConfig(
                n_jobs=n_jobs, size=TwoStageSizeConfig(p_small=0.5)
            ).with_beta_arr(0.51)
            stream = SyntheticWorkloadStream(config, seed=17).stream()
            runner = SimulationRunner(
                stream, make_scheduler("EASY"), online=True, retain_records=False
            )
            started = time.perf_counter()
            metrics = runner.run()
            elapsed = time.perf_counter() - started
            assert metrics.events_processed > 0
            return elapsed / metrics.events_processed

        small = per_event_seconds(10_000)
        large = per_event_seconds(50_000)
        # Generous: allows 2x noise/cache effects, trips on the ~5x
        # growth a linear-in-queue scan reintroduces at this spread.
        assert large < 2.0 * small, (
            f"per-event cost grew {large / small:.2f}x from 10k to 50k jobs "
            f"({small * 1e6:.2f}us -> {large * 1e6:.2f}us)"
        )


class TestGenerationThroughput:
    def test_workload_generation_fast(self):
        config = GeneratorConfig(n_jobs=5000)
        elapsed = timed(
            lambda: CWFWorkloadGenerator(config).generate(np.random.default_rng(1))
        )
        assert elapsed < 10.0, f"{elapsed:.2f}s to generate 5000 jobs"


class TestCalibrationGeneratesOnce:
    """A calibration's probes rerun only the arrival recurrence; the
    workload is generated once, at the calibrated ``beta_arr``.  Counts
    calls instead of timing them, so a return to per-probe generation
    fails whatever the host's speed."""

    @pytest.mark.parametrize("target", PAPER_LOADS)
    def test_one_generation_per_calibration(self, monkeypatch, target):
        generations = []
        probes = []
        generate, load = CWFWorkloadGenerator.generate, LoadProbe.load

        def counted_generate(generator, rng):
            generations.append(generator.config.lublin.beta_arr)
            return generate(generator, rng)

        def counted_load(probe, beta_arr):
            probes.append(beta_arr)
            return load(probe, beta_arr)

        monkeypatch.setattr(CWFWorkloadGenerator, "generate", counted_generate)
        monkeypatch.setattr(LoadProbe, "load", counted_load)
        config = GeneratorConfig(n_jobs=500, size=TwoStageSizeConfig(p_small=0.5))
        result = calibrate_beta_arr(config, target, seed=29)
        assert generations == [result.beta_arr]
        assert len(probes) > 2
