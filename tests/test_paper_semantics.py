"""Paper-narrative tests: statements made in the paper's text, checked
end-to-end against the implementation.

Each test cites the paper location it pins down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import make_scheduler
from repro.experiments.runner import SimulationRunner, simulate
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig
from tests.conftest import batch_job, make_workload, of_kind, run_traced


class TestFigure2EndToEnd:
    """§III-A and Figure 2 with *staggered* arrivals.

    When the 7-proc job arrives alone it is the only DP candidate, so
    every scheduler — including Delayed-LOS — starts it immediately.
    The Figure 2 divergence only materializes when the queue holds all
    three jobs at decision time (see TestFigure2Simultaneous); this
    class pins the staggered behaviour so nobody "fixes" it into
    clairvoyance about future arrivals.
    """

    def _workload(self):
        return make_workload(
            [
                batch_job(1, submit=0.0, num=7, estimate=100.0),
                batch_job(2, submit=1.0, num=4, estimate=100.0),
                batch_job(3, submit=2.0, num=6, estimate=100.0),
            ],
            machine_size=10,
            granularity=1,
        )

    @pytest.mark.parametrize("name", ["LOS", "Delayed-LOS", "EASY"])
    def test_lone_head_starts_immediately(self, name):
        _, records = run_traced(self._workload(), make_scheduler(name))
        starts = {r.data["job"]: r.time for r in of_kind(records, "start")}
        assert starts[1] == 0.0, "online schedulers cannot anticipate arrivals"
        # Only 3 processors remain: jobs 2 and 3 must wait for job 1.
        assert starts[2] >= 100.0 and starts[3] >= 100.0


class TestFigure2Simultaneous:
    """The exact Figure 2 situation: all three jobs present at once."""

    def _workload(self):
        return make_workload(
            [
                batch_job(1, submit=10.0, num=7, estimate=100.0),
                batch_job(2, submit=10.0, num=4, estimate=100.0),
                batch_job(3, submit=10.0, num=6, estimate=100.0),
            ],
            machine_size=10,
            granularity=1,
        )

    def test_utilizations_differ_as_described(self):
        los = simulate(self._workload(), make_scheduler("LOS"))
        delayed = simulate(self._workload(), make_scheduler("Delayed-LOS", max_skip_count=5))
        # "It would lead to utilization of only 7 instead of 10".
        los_starts = {r.job_id: r.start for r in los.records}
        delayed_starts = {r.job_id: r.start for r in delayed.records}
        assert los_starts[1] == 10.0
        assert delayed_starts[2] == 10.0 and delayed_starts[3] == 10.0
        assert delayed_starts[1] > 10.0


class TestSlowdownDefinition:
    """§V: slowdown = (avg waiting time + avg runtime) / avg runtime."""

    def test_formula_on_real_run(self, small_batch_workload):
        metrics = simulate(small_batch_workload, make_scheduler("EASY"))
        expected = (metrics.mean_wait + metrics.mean_runtime) / metrics.mean_runtime
        assert metrics.slowdown == pytest.approx(expected)


class TestParameterTables:
    """§IV-D Tables I-II defaults are wired through the generator."""

    def test_runtime_parameters(self):
        config = GeneratorConfig()
        lub = config.lublin
        assert (lub.alpha1, lub.beta1) == (4.2, 0.94)
        assert (lub.alpha2, lub.beta2) == (312.0, 0.03)
        assert (lub.pa, lub.pb) == (-0.0054, 0.78)

    def test_arrival_parameters(self):
        lub = GeneratorConfig().lublin
        assert lub.alpha_arr == 13.2303
        assert lub.alpha_num == 15.1737
        assert lub.beta_num == 0.9631
        assert lub.arar == 1.0225

    def test_machine_is_bluegene_p(self):
        config = GeneratorConfig()
        assert config.machine_size == 320
        assert config.size.granularity == 32

    def test_paper_beta_arr_range_spans_paper_loads(self):
        """Table II: β_arr ∈ [0.4101, 0.6101].  With the paper's own
        size mixes, that range must bracket loads [0.5, 1]."""
        rng_low = CWFWorkloadGenerator(
            GeneratorConfig(n_jobs=300).with_beta_arr(0.4101)
        ).generate(np.random.default_rng(1))
        rng_high = CWFWorkloadGenerator(
            GeneratorConfig(n_jobs=300).with_beta_arr(0.6101)
        ).generate(np.random.default_rng(1))
        assert rng_low.offered_load() > 1.0 or rng_low.offered_load() > 0.9
        assert rng_high.offered_load() < 0.6


class TestECCBounds:
    """§III-C: 'A maximum count on number of ECCs can be imposed'."""

    def test_cap_respected_over_full_run(self, small_elastic_workload):
        runner = SimulationRunner(
            small_elastic_workload,
            make_scheduler("Delayed-LOS-E"),
            max_eccs_per_job=1,
        )
        metrics = runner.run()
        assert all(r.eccs_applied <= 1 for r in metrics.records)
