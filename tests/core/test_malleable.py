"""Scheduler-initiated malleability: the Malleable-* policy family.

Three layers of coverage (docs/malleability.md):

- planner unit tests — average steal, floors/ceilings, all-or-nothing;
- single-cycle policy decisions via :class:`PolicyHarness` — who
  donates, who starts, when the agreement gate blocks;
- end-to-end runs — work-conserving resize arithmetic down to exact
  finish times, telemetry counters, the 1e-9 trace oracle (with and
  without fault injection), and the merged-but-disabled guarantee:
  every pre-existing algorithm is *bit-for-bit unchanged* on a
  workload that merely declares malleability ranges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fcfs import FCFS
from repro.core.malleable import (
    MalleableAgreement,
    MalleableBackfill,
    MalleableFCFS,
    expand_ceiling,
    plan_average_steal,
    shrink_floor,
)
from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.runner import SimulationRunner, simulate
from repro.faults.model import FaultConfig
from repro.obs.analytics import assert_consistent, replay
from repro.workload.ecc import ECCKind
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.job import Job
from repro.workload.transform import make_malleable
from repro.workload.twostage import TwoStageSizeConfig
from tests.conftest import batch_job, make_workload, of_kind, run_traced
from tests.core.policy_harness import PolicyHarness

MALLEABLE_POLICIES = ["Malleable-FCFS", "Malleable-Backfill", "Malleable-Agreement"]
LEGACY_ALGORITHMS = [n for n in sorted(ALGORITHMS) if n not in MALLEABLE_POLICIES]


def mjob(job_id, num, *, submit=0.0, estimate=100.0, lo=None, pref=None, hi=None):
    """A batch job with an explicit malleability range."""
    return Job(
        job_id=job_id,
        submit=submit,
        num=num,
        estimate=estimate,
        min_procs=lo,
        pref_procs=pref,
        max_procs=hi,
    )


def generated(seed=11, n_jobs=40, p_dedicated=0.0, p_extend=0.1, p_reduce=0.1):
    config = GeneratorConfig(
        n_jobs=n_jobs,
        size=TwoStageSizeConfig(p_small=0.5),
        p_dedicated=p_dedicated,
        p_extend=p_extend,
        p_reduce=p_reduce,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


# ----------------------------------------------------------------------
# Planner helpers
# ----------------------------------------------------------------------
class TestPlanners:
    def test_even_split_across_donors(self):
        donors = [mjob(1, 4, lo=1), mjob(2, 4, lo=1)]
        assert plan_average_steal(donors, need=4, gran=1) == {1: 2, 2: 2}

    def test_round_robin_order_breaks_ties_by_list_order(self):
        donors = [mjob(1, 4, lo=1), mjob(2, 4, lo=1)]
        assert plan_average_steal(donors, need=3, gran=1) == {1: 2, 2: 1}

    def test_donor_at_floor_is_skipped(self):
        donors = [mjob(1, 2, lo=2), mjob(2, 6, lo=2)]
        assert plan_average_steal(donors, need=3, gran=1) == {2: 3}

    def test_all_or_nothing(self):
        donors = [mjob(1, 4, lo=2), mjob(2, 4, lo=2)]
        # combined slack is 4 < 5: nobody shrinks
        assert plan_average_steal(donors, need=5, gran=1) is None

    def test_non_positive_need_is_rejected(self):
        assert plan_average_steal([mjob(1, 8, lo=1)], need=0, gran=1) is None

    def test_granularity_snapping(self):
        job = mjob(1, 128, lo=33, pref=70, hi=130)
        assert shrink_floor(job, gran=32) == 64  # 33 rounded up
        assert expand_ceiling(job, gran=32, machine_size=320) == 128  # 130 down

    def test_floor_never_below_one_unit(self):
        assert shrink_floor(mjob(1, 64, lo=1), gran=32) == 32


# ----------------------------------------------------------------------
# Single-cycle decisions
# ----------------------------------------------------------------------
class TestShrinkToStart:
    def test_steals_to_start_the_head(self):
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 8, lo=4))
        head = batch_job(2, num=6)
        h.enqueue(head)
        decision = MalleableFCFS().cycle(h.context())
        assert decision.starts == [head]
        (cmd,) = decision.commands
        assert (cmd.job_id, cmd.kind, cmd.amount) == (1, ECCKind.REDUCE_PROCS, 4)

    def test_steal_is_spread_evenly(self):
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 4, lo=1))
        h.run_job(mjob(2, 4, lo=1))
        h.enqueue(batch_job(3, num=6))
        decision = MalleableFCFS().cycle(h.context())
        assert {c.job_id: c.amount for c in decision.commands} == {1: 2, 2: 2}
        assert all(c.kind is ECCKind.REDUCE_PROCS for c in decision.commands)

    def test_all_or_nothing_leaves_everyone_alone(self):
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 4, lo=3))
        h.run_job(mjob(2, 4, lo=3))
        h.enqueue(batch_job(3, num=6))  # need 4, slack only 2
        assert MalleableFCFS().cycle(h.context()).is_empty()

    def test_rigid_running_jobs_are_never_touched(self):
        h = PolicyHarness(total=10)
        h.run_job(batch_job(1, num=8))
        h.enqueue(batch_job(2, num=6))
        assert MalleableFCFS().cycle(h.context()).is_empty()

    def test_fitting_head_is_passed_through_from_inner(self):
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 4, lo=1))
        head = batch_job(2, num=6)
        h.enqueue(head)
        decision = MalleableFCFS().cycle(h.context())
        assert decision.starts == [head] and not decision.commands


class TestAgreementGate:
    def _state(self):
        # two running malleable jobs, one of them already at its floor
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 6, lo=2))
        h.run_job(mjob(2, 2, lo=2, hi=4))
        h.enqueue(batch_job(3, num=4))  # need 2
        return h

    def test_below_threshold_blocks_the_steal(self):
        decision = MalleableAgreement(agreement=0.6).cycle(self._state().context())
        assert decision.is_empty()  # 1 donor of 2 running < 0.6

    def test_at_threshold_the_steal_proceeds(self):
        decision = MalleableAgreement(agreement=0.5).cycle(self._state().context())
        assert [job.job_id for job in decision.starts] == [3]
        assert {c.job_id: c.amount for c in decision.commands} == {1: 2}


class TestExpand:
    def test_backfill_grows_to_pref_then_max(self):
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 2, lo=2, pref=6, hi=10))
        decision = MalleableBackfill().cycle(h.context())
        (cmd,) = decision.commands  # one merged EP per job
        assert (cmd.job_id, cmd.kind, cmd.amount) == (1, ECCKind.EXTEND_PROCS, 8)

    def test_agreement_variant_stops_at_pref(self):
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 2, lo=2, pref=6, hi=10))
        (cmd,) = MalleableAgreement().cycle(h.context()).commands
        assert cmd.amount == 4

    def test_pref_is_a_common_pool(self):
        # both jobs reach pref before either grows toward max
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 2, lo=2, pref=4, hi=10))
        h.run_job(mjob(2, 2, lo=2, pref=4, hi=10))
        decision = MalleableAgreement().cycle(h.context())
        assert {c.job_id: c.amount for c in decision.commands} == {1: 2, 2: 2}

    def test_fcfs_variant_never_expands(self):
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 2, lo=2, pref=6, hi=10))
        assert MalleableFCFS().cycle(h.context()).is_empty()

    def test_no_expansion_when_queue_is_nonempty(self):
        h = PolicyHarness(total=10)
        h.run_job(mjob(1, 2, lo=2, pref=6, hi=10))
        h.enqueue(batch_job(2, num=10))  # head that cannot fit
        decision = MalleableBackfill().cycle(h.context())
        assert not any(c.kind is ECCKind.EXTEND_PROCS for c in decision.commands)


class TestConstruction:
    def test_registry_names_have_no_elastic_suffix(self):
        for name in MALLEABLE_POLICIES:
            scheduler = make_scheduler(name)
            assert scheduler.name == name
            assert scheduler.malleable and scheduler.elastic
            assert not scheduler.handles_dedicated

    def test_legacy_policies_are_not_malleable(self):
        for name in LEGACY_ALGORITHMS:
            assert not make_scheduler(name).malleable

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="expand"):
            MalleableBackfill.__mro__[1](MalleableFCFS(), expand="bogus")
        with pytest.raises(ValueError, match="agreement"):
            MalleableAgreement(agreement=1.5)


# ----------------------------------------------------------------------
# End-to-end: work-conserving arithmetic and telemetry
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_shrink_stretches_donor_and_starts_head(self):
        workload = make_workload(
            [
                mjob(1, 8, estimate=100.0, lo=4),
                batch_job(2, submit=10.0, num=6, estimate=50.0),
            ],
            machine_size=10,
            granularity=1,
        )
        runner = SimulationRunner(workload, make_scheduler("Malleable-FCFS"))
        metrics = runner.run()
        records = {r.job_id: r for r in metrics.records}
        # job 2 starts the instant it arrives, on the stolen capacity
        assert records[2].start == 10.0 and records[2].finish == 60.0
        # donor: 10s at 8 procs, then the 90s residual doubled at 4
        assert records[1].finish == pytest.approx(10.0 + 90.0 * (8 / 4))
        counters = runner.telemetry.counters
        assert counters["malleable_shrinks"] == 1
        assert counters["malleable_procs_reclaimed"] == 4
        assert counters["malleable_node_s_reclaimed"] == 360  # 4 procs x 90 s

    def test_expand_compresses_the_lone_job(self):
        workload = make_workload(
            [mjob(1, 2, estimate=100.0, lo=2, pref=6, hi=10)],
            machine_size=10,
            granularity=1,
        )
        runner = SimulationRunner(workload, make_scheduler("Malleable-Backfill"))
        metrics = runner.run()
        # started at 2, expanded to 10 in the same cycle: 100 * 2/10
        assert metrics.records[0].finish == pytest.approx(20.0)
        counters = runner.telemetry.counters
        assert counters["malleable_expands"] == 1
        assert counters["malleable_procs_soaked"] == 8
        assert counters["malleable_node_s_soaked"] == 160  # 8 procs x 20 s

    def test_scheduler_resizes_are_traced_with_origin(self):
        workload = make_workload(
            [mjob(1, 2, estimate=100.0, lo=2, pref=6, hi=10)],
            machine_size=10,
            granularity=1,
        )
        _, records = run_traced(workload, make_scheduler("Malleable-Backfill"))
        (resize,) = [
            r for r in of_kind(records, "ecc")
            if r.data.get("origin") == "scheduler"
        ]
        assert resize.data["num"] == 10
        assert resize.data["outcome"] == "applied-running"

    def test_rigid_workload_reduces_to_inner_policy(self):
        workload = generated(seed=13)
        # the family is elastic by construction, so the -E variant is
        # the exact inner equivalent on an ECC-carrying workload
        pairs = [
            ("Malleable-Backfill", make_scheduler("EASY-E")),
            ("Malleable-Agreement", make_scheduler("EASY-E")),
            ("Malleable-FCFS", FCFS(elastic=True)),
        ]
        for outer, inner_scheduler in pairs:
            inner = inner_scheduler.name
            ma, trace_a = run_traced(workload, make_scheduler(outer))
            mb, trace_b = run_traced(workload, inner_scheduler)
            # metrics objects differ only by the algorithm label
            assert ma.records == mb.records, f"{outer} != {inner} on rigid workload"
            assert (ma.utilization, ma.mean_wait, ma.slowdown) == (
                mb.utilization, mb.mean_wait, mb.slowdown
            )
            assert trace_a == trace_b


# ----------------------------------------------------------------------
# The 1e-9 oracle, with and without faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", MALLEABLE_POLICIES)
class TestOracle:
    def _check(self, name, workload, **kwargs):
        metrics, records = run_traced(workload, make_scheduler(name), **kwargs)
        rebuilt = replay(records, {"machine_size": workload.machine_size})
        assert_consistent(rebuilt, metrics, context=name)
        return metrics

    def test_oracle_on_malleable_workload(self, name):
        workload = make_malleable(generated(seed=3, n_jobs=60), 1.0, seed=2)
        metrics = self._check(name, workload)
        counters = metrics.telemetry.counters
        activity = counters.get("malleable_shrinks", 0) + counters.get(
            "malleable_expands", 0
        )
        assert activity > 0, f"{name} never resized anything"

    def test_oracle_under_fault_injection(self, name):
        workload = make_malleable(generated(seed=7, n_jobs=60), 0.7, seed=4)
        self._check(
            name,
            workload,
            faults=FaultConfig(mtbf=30000.0, mttr=2000.0, seed=5, p_job_fail=0.05),
        )

    def test_determinism(self, name):
        workload = make_malleable(generated(seed=5, n_jobs=40), 1.0, seed=1)
        rows = [
            simulate(workload, make_scheduler(name)).as_row() for _ in range(2)
        ]
        assert rows[0] == rows[1]


# ----------------------------------------------------------------------
# Merged but disabled: pre-existing algorithms are bit-for-bit unchanged
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", LEGACY_ALGORITHMS)
def test_declared_ranges_change_nothing_for_legacy_policies(name):
    """A workload that merely *declares* min/pref/max must replay
    identically under every pre-existing algorithm — malleability is
    scheduler-initiated, and only Malleable-* schedulers initiate."""
    scheduler = make_scheduler(name)
    p_ded = 0.1 if scheduler.handles_dedicated else 0.0
    base = generated(seed=3, n_jobs=30, p_dedicated=p_ded)
    ranged = make_malleable(base, 0.7, seed=3)
    ma, trace_a = run_traced(base, make_scheduler(name))
    mb, trace_b = run_traced(ranged, make_scheduler(name))
    assert ma == mb
    assert trace_a == trace_b
