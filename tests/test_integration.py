"""Cross-module integration and property tests.

These run every Table III algorithm end-to-end on randomized workloads
and assert the *simulation-level* invariants that must hold regardless
of policy:

- every job runs exactly once, between its arrival and the end,
- machine capacity and granularity are never violated (checked at
  event level via the trace),
- dedicated jobs never start before their rigid requested start,
- aggregate metrics are internally consistent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig
from tests.conftest import of_kind, run_traced

BATCH_ALGORITHMS = [
    name
    for name, (_, _) in ALGORITHMS.items()
    if not make_scheduler(name).handles_dedicated
]
HETERO_ALGORITHMS = [
    name for name in ALGORITHMS if make_scheduler(name).handles_dedicated
]


def generate(seed, n_jobs=40, p_dedicated=0.0, p_extend=0.0, p_reduce=0.0, p_small=0.5):
    config = GeneratorConfig(
        n_jobs=n_jobs,
        size=TwoStageSizeConfig(p_small=p_small),
        p_dedicated=p_dedicated,
        p_extend=p_extend,
        p_reduce=p_reduce,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


def assert_invariants(workload, records, metrics):
    n = len(workload)
    assert metrics.n_jobs == n, "every job must finish"
    assert len({r.job_id for r in metrics.records}) == n, "each job exactly once"
    submits = {j.job_id: j.submit for j in workload.jobs}
    requested = {
        j.job_id: j.requested_start for j in workload.jobs if j.is_dedicated
    }
    for record in metrics.records:
        assert record.start >= submits[record.job_id], "start before arrival"
        assert record.finish >= record.start
        if record.job_id in requested:
            assert record.start >= requested[record.job_id], (
                "dedicated job started before its rigid start time"
            )
    # Event-level capacity audit.
    level = 0
    for event in of_kind(records, "start", "finish"):
        level += event.data["num"] if event.kind == "start" else -event.data["num"]
        assert 0 <= level <= workload.machine_size
    assert 0.0 <= metrics.utilization <= 1.0
    assert metrics.mean_wait >= 0.0
    assert metrics.slowdown >= 1.0


@pytest.mark.parametrize("name", BATCH_ALGORITHMS)
def test_batch_algorithms_invariants(name):
    workload = generate(seed=101, n_jobs=60)
    metrics, records = run_traced(workload, make_scheduler(name))
    assert_invariants(workload, records, metrics)


@pytest.mark.parametrize("name", HETERO_ALGORITHMS)
def test_hetero_algorithms_invariants(name):
    workload = generate(seed=202, n_jobs=60, p_dedicated=0.4)
    metrics, records = run_traced(workload, make_scheduler(name))
    assert_invariants(workload, records, metrics)


@pytest.mark.parametrize("name", ["EASY-E", "LOS-E", "Delayed-LOS-E"])
def test_elastic_batch_invariants(name):
    workload = generate(seed=303, n_jobs=60, p_extend=0.3, p_reduce=0.2)
    metrics, records = run_traced(workload, make_scheduler(name))
    assert_invariants(workload, records, metrics)
    assert sum(metrics.ecc_stats.values()) == len(workload.eccs)


@pytest.mark.parametrize("name", ["EASY-DE", "LOS-DE", "Hybrid-LOS-E"])
def test_elastic_hetero_invariants(name):
    workload = generate(
        seed=404, n_jobs=60, p_dedicated=0.4, p_extend=0.3, p_reduce=0.2
    )
    metrics, records = run_traced(workload, make_scheduler(name))
    assert_invariants(workload, records, metrics)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    p_small=st.sampled_from([0.2, 0.5, 0.8]),
    p_dedicated=st.sampled_from([0.0, 0.5]),
    elastic=st.booleans(),
    algorithm_index=st.integers(0, 2),
)
def test_random_workloads_all_families(seed, p_small, p_dedicated, elastic, algorithm_index):
    """Fuzz: random workload knobs × the three policy families."""
    if p_dedicated > 0:
        name = ["EASY-D", "LOS-D", "Hybrid-LOS"][algorithm_index]
    else:
        name = ["EASY", "LOS", "Delayed-LOS"][algorithm_index]
    if elastic:
        # EASY-D -> EASY-DE, LOS-D -> LOS-DE, any other name -> name-E.
        name += "E" if name.endswith("-D") else "-E"
    workload = generate(
        seed=seed,
        n_jobs=25,
        p_small=p_small,
        p_dedicated=p_dedicated,
        p_extend=0.3 if elastic else 0.0,
        p_reduce=0.2 if elastic else 0.0,
    )
    metrics, records = run_traced(workload, make_scheduler(name))
    assert_invariants(workload, records, metrics)


class TestPairedComparisons:
    """Directional sanity on a common seeded workload."""

    def test_backfilling_beats_fcfs(self):
        workload = generate(seed=7, n_jobs=120)
        from repro.experiments.sweep import run_algorithms

        results = run_algorithms(workload, ("FCFS", "EASY"))
        assert results["EASY"].mean_wait <= results["FCFS"].mean_wait

    def test_identical_policies_identical_results(self):
        workload = generate(seed=8, n_jobs=80)
        from repro.experiments.sweep import run_algorithms

        a = run_algorithms(workload, ("Delayed-LOS",))["Delayed-LOS"]
        b = run_algorithms(workload, ("Delayed-LOS",))["Delayed-LOS"]
        assert [(r.job_id, r.start) for r in a.records] == [
            (r.job_id, r.start) for r in b.records
        ]

    def test_total_work_conserved_across_policies(self):
        """All non-elastic policies execute the same processor-seconds."""
        workload = generate(seed=9, n_jobs=80)
        from repro.experiments.sweep import run_algorithms

        results = run_algorithms(workload, ("FCFS", "EASY", "LOS", "Delayed-LOS"))
        works = {
            name: sum(r.num * r.runtime for r in m.records)
            for name, m in results.items()
        }
        reference = works.pop("FCFS")
        for name, work in works.items():
            assert work == pytest.approx(reference), name


class TestConservationLaws:
    """Exact accounting identities that must hold on every run."""

    def test_busy_area_equals_executed_work(self):
        """The utilization tracker's integral equals the sum of
        num x realized-runtime over all completed jobs."""
        import pytest as _pytest

        from repro.experiments.runner import SimulationRunner

        workload = generate(seed=77, n_jobs=80)
        runner = SimulationRunner(workload, make_scheduler("Delayed-LOS"))
        metrics = runner.run()
        executed = sum(r.num * r.runtime for r in metrics.records)
        last_finish = max(r.finish for r in metrics.records)
        assert runner.tracker.busy_area(until=last_finish) == _pytest.approx(executed)

    def test_utilization_identity(self):
        """mean utilization == executed work / (M x makespan)."""
        import pytest as _pytest

        from repro.experiments.runner import simulate as _simulate

        workload = generate(seed=88, n_jobs=80)
        metrics = _simulate(workload, make_scheduler("EASY"))
        executed = sum(r.num * r.runtime for r in metrics.records)
        expected = executed / (workload.machine_size * metrics.makespan)
        assert metrics.utilization == _pytest.approx(expected)

    def test_littles_law_consistency(self):
        """Mean queue length ~= arrival rate x mean wait (Little's law,
        exact for the time-average over the same window)."""
        import pytest as _pytest

        from repro.experiments.runner import simulate as _simulate

        workload = generate(seed=99, n_jobs=120)
        metrics = _simulate(workload, make_scheduler("EASY"))
        assert metrics.queue is not None
        # L = (total wait time integrated) / window = sum(wait_i)/window.
        window = metrics.makespan
        expected_L = sum(r.wait for r in metrics.records) / window
        assert metrics.queue.mean_queue_length == _pytest.approx(expected_L, rel=1e-6)
