"""Tests for Basic_DP and Reservation_DP, including brute-force
equivalence (the DPs must be *exact* knapsack solvers)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dp import (
    _solve_basic_bitset,
    _solve_reservation_bitset,
    basic_dp,
    reservation_dp,
    reservation_dp_select,
)
from repro.core.registry import make_scheduler
from repro.experiments.runner import simulate
from repro.obs.telemetry import Telemetry, activated
from repro.queues.batch_queue import BatchQueue
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from tests.conftest import batch_job
from tests.core.dp_table import solve_basic_table, solve_reservation_table


def _jobs(sizes, estimates=None):
    estimates = estimates or [100.0] * len(sizes)
    return [
        batch_job(i + 1, submit=float(i), num=size, estimate=est)
        for i, (size, est) in enumerate(zip(sizes, estimates))
    ]


def brute_force_basic(jobs, free):
    """Exhaustive max-utilization subset."""
    best = 0
    for r in range(len(jobs) + 1):
        for combo in combinations(jobs, r):
            total = sum(j.num for j in combo)
            if total <= free:
                best = max(best, total)
    return best


def brute_force_reservation(jobs, free, frec, fret, now):
    best = 0
    for r in range(len(jobs) + 1):
        for combo in combinations(jobs, r):
            total = sum(j.num for j in combo)
            freeze_total = sum(j.num for j in combo if now + j.estimate >= fret)
            if total <= free and freeze_total <= frec:
                best = max(best, total)
    return best


class TestBasicDP:
    def test_paper_figure2_example(self):
        """10-processor machine; jobs 7, 4, 6: the DP must pick {4, 6}
        for utilization 10, not the head's 7 (the Delayed-LOS
        motivation)."""
        jobs = _jobs([7, 4, 6])
        selected = basic_dp(jobs, free=10)
        assert sorted(j.num for j in selected) == [4, 6]
        assert sum(j.num for j in selected) == 10

    def test_selects_everything_when_it_fits(self):
        jobs = _jobs([32, 64, 96])
        assert basic_dp(jobs, free=320, granularity=32) == jobs

    def test_empty_inputs(self):
        assert basic_dp([], free=100) == []
        assert basic_dp(_jobs([10]), free=0) == []
        assert basic_dp(_jobs([10]), free=-5) == []

    def test_oversized_jobs_excluded(self):
        jobs = _jobs([500, 30])
        selected = basic_dp(jobs, free=100)
        assert [j.num for j in selected] == [30]

    def test_queue_order_preserved_in_result(self):
        jobs = _jobs([3, 5, 2, 4])
        selected = basic_dp(jobs, free=9)
        indices = [jobs.index(j) for j in selected]
        assert indices == sorted(indices)

    def test_earlier_jobs_preferred_on_ties(self):
        # Both {a} and {b} give utilization 4; FCFS fairness demands a.
        jobs = _jobs([4, 4])
        selected = basic_dp(jobs, free=4)
        assert [j.job_id for j in selected] == [1]

    def test_lookahead_limits_window(self):
        jobs = _jobs([90, 10, 100])
        # With the full queue the best is 90+10=100;
        assert sum(j.num for j in basic_dp(jobs, free=100, lookahead=None)) == 100
        # with lookahead=1 only the first job is visible.
        assert sum(j.num for j in basic_dp(jobs, free=100, lookahead=1)) == 90

    def test_granularity_compression(self):
        jobs = _jobs([96, 128, 224])
        selected = basic_dp(jobs, free=320, granularity=32)
        assert sum(j.num for j in selected) == 320

    @pytest.mark.parametrize("free", [40, 100])
    def test_sizes_off_granularity_rejected(self, free):
        # 15 is not a multiple of 10: flooring it to 1 unit would solve
        # a different instance, so the call fails instead.
        with pytest.raises(ValueError, match="multiples of the granularity 10"):
            basic_dp(_jobs([30, 15, 20]), free=free, granularity=10)

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=10),
        free=st.integers(0, 30),
    )
    def test_matches_brute_force(self, sizes, free):
        jobs = _jobs(sizes)
        selected = basic_dp(jobs, free=free, lookahead=None)
        value = sum(j.num for j in selected)
        assert value == brute_force_basic(jobs, free)
        assert value <= max(free, 0)
        assert len({j.job_id for j in selected}) == len(selected)


class TestReservationDP:
    def test_freeze_constraint_enforced(self):
        """Jobs running past the freeze must fit the freeze capacity."""
        now, fret = 0.0, 50.0
        jobs = _jobs([6, 6], estimates=[100.0, 100.0])  # both run past fret
        selected = reservation_dp(jobs, free=12, freeze_capacity=6, freeze_time=fret, now=now)
        assert sum(j.num for j in selected) == 6  # only one fits the shadow

    def test_short_jobs_ignore_freeze(self):
        """A job ending strictly before fret has frenum = 0."""
        now, fret = 0.0, 50.0
        jobs = _jobs([6, 6], estimates=[40.0, 100.0])
        selected = reservation_dp(jobs, free=12, freeze_capacity=6, freeze_time=fret, now=now)
        assert sum(j.num for j in selected) == 12

    def test_boundary_is_strict(self):
        """t + dur == fret occupies freeze capacity (line 16's <)."""
        now, fret = 0.0, 50.0
        jobs = _jobs([6], estimates=[50.0])
        assert reservation_dp(jobs, free=6, freeze_capacity=0, freeze_time=fret, now=now) == []
        jobs = _jobs([6], estimates=[49.0])
        assert len(reservation_dp(jobs, free=6, freeze_capacity=0, freeze_time=fret, now=now)) == 1

    def test_zero_freeze_capacity(self):
        now, fret = 0.0, 50.0
        jobs = _jobs([4, 5], estimates=[100.0, 10.0])
        selected = reservation_dp(jobs, free=9, freeze_capacity=0, freeze_time=fret, now=now)
        assert [j.num for j in selected] == [5]

    def test_negative_freeze_capacity_clamped(self):
        jobs = _jobs([4], estimates=[10.0])
        selected = reservation_dp(jobs, free=9, freeze_capacity=-3, freeze_time=50.0, now=0.0)
        assert [j.num for j in selected] == [4]  # ends before freeze

    def test_sizes_off_granularity_rejected(self):
        jobs = _jobs([30, 15, 20], estimates=[100.0, 10.0, 100.0])
        with pytest.raises(ValueError, match="multiples of the granularity 10"):
            reservation_dp(
                jobs, free=40, freeze_capacity=30, freeze_time=50.0, now=0.0,
                granularity=10,
            )

    def test_empty_inputs(self):
        assert reservation_dp([], 10, 10, 50.0, 0.0) == []
        assert reservation_dp(_jobs([5]), 0, 10, 50.0, 0.0) == []

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 10), min_size=1, max_size=8),
        estimates=st.lists(st.integers(1, 100), min_size=8, max_size=8),
        free=st.integers(0, 25),
        frec=st.integers(0, 25),
        fret=st.integers(1, 100),
    )
    def test_matches_brute_force(self, sizes, estimates, free, frec, fret):
        jobs = _jobs(sizes, estimates=[float(e) for e in estimates[: len(sizes)]])
        now = 0.0
        selected = reservation_dp(
            jobs, free=free, freeze_capacity=frec, freeze_time=float(fret), now=now, lookahead=None
        )
        value = sum(j.num for j in selected)
        assert value == brute_force_reservation(jobs, free, frec, float(fret), now)
        # And the selection itself is feasible.
        assert value <= max(free, 0)
        assert sum(j.num for j in selected if now + j.estimate >= fret) <= max(frec, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 10), min_size=1, max_size=8),
        free=st.integers(0, 30),
    )
    def test_reduces_to_basic_dp_with_infinite_freeze(self, sizes, free):
        """With unconstrained freeze capacity, Reservation_DP must
        select the same utilization as Basic_DP."""
        jobs = _jobs(sizes)
        basic = sum(j.num for j in basic_dp(jobs, free=free, lookahead=None))
        reserved = sum(
            j.num
            for j in reservation_dp(
                jobs, free=free, freeze_capacity=free, freeze_time=0.0, now=0.0, lookahead=None
            )
        )
        assert basic == reserved


class TestBitsetMatchesTable:
    """The subset-sum bitset solvers must reproduce the value-table
    reference solvers (tests/core/dp_table.py) exactly, selected
    indices included (FCFS tie-break)."""

    @given(sizes=st.lists(st.integers(1, 10), min_size=1, max_size=10),
           capacity=st.integers(1, 32))
    @settings(max_examples=300, deadline=None)
    def test_basic(self, sizes, capacity):
        entries = tuple((s, s * 32) for s in sizes)
        assert _solve_basic_bitset(capacity, sizes) == solve_basic_table(
            capacity, entries
        )

    @given(
        pairs=st.lists(
            st.tuples(st.integers(1, 8), st.booleans()), min_size=1, max_size=8
        ),
        cap_now=st.integers(1, 16),
        cap_freeze=st.integers(0, 10),
    )
    @settings(max_examples=300, deadline=None)
    def test_reservation(self, pairs, cap_now, cap_freeze):
        # frenum is 0 or the full size in real instances (Algorithm 1
        # line 16); the solver itself accepts any fsize <= size.
        entries = tuple(
            (size, size if holds else 0, size * 32) for size, holds in pairs
        )
        assert _solve_reservation_bitset(
            cap_now, cap_freeze, [(size, fsize) for size, fsize, _ in entries]
        ) == solve_reservation_table(cap_now, cap_freeze, entries)


class TestFitGatePremise:
    """The reservation policies skip the freeze and the DP when
    ``BatchQueue.any_fits`` says no window job has ``num <= free``.
    That is exact only because the DP then selects nothing, solves
    nothing and raises nothing, whatever the freeze is."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_no_window_fit_means_empty_selection(self, data):
        granularity = data.draw(st.sampled_from([1, 10, 32]), label="granularity")
        free = data.draw(st.integers(1, 320), label="free")
        lookahead = data.draw(st.none() | st.integers(1, 8), label="lookahead")
        wide = st.integers(free + 1, free + 320)
        if lookahead is None:
            window = data.draw(st.lists(wide, max_size=8))
        else:
            window = data.draw(st.lists(wide, min_size=lookahead, max_size=lookahead))
        # Behind the window: narrow jobs whose sizes are off the
        # granularity, which the DP would reject were they inside it.
        behind = [] if lookahead is None else data.draw(st.lists(st.integers(1, 320), max_size=6))
        queue = BatchQueue()
        for index, num in enumerate(window + behind):
            queue.push(batch_job(index + 1, submit=float(index), num=num,
                                 estimate=data.draw(st.sampled_from([1.0, 50.0, 1e6]))))
        assert not queue.any_fits(free, lookahead)

        telemetry = Telemetry()
        with activated(telemetry):
            selection = reservation_dp_select(
                queue,
                free,
                freeze_capacity=data.draw(st.integers(-50, 400), label="frec"),
                freeze_time=data.draw(st.floats(0.0, 1e7), label="fret"),
                now=data.draw(st.sampled_from([0.0, 10.0, 1e6]), label="now"),
                granularity=granularity,
                lookahead=lookahead,
            )
        assert selection.jobs == [] and not selection.head_selected
        assert "dp_invocations" not in telemetry.counters
        assert "dp_cells" not in telemetry.counters


def _counter_workload(p_dedicated):
    config = GeneratorConfig(n_jobs=300, p_dedicated=p_dedicated, p_extend=0.3, p_reduce=0.1)
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(23))


#: Telemetry counters of the policies the fit gate touches, pinned from
#: the run before the gate existed.  EASY and Delayed-LOS-E take batch
#: jobs only, so they run the elastic workload without its dedicated
#: share; Hybrid-LOS-E runs the dedicated-plus-elastic one.
PINNED_COUNTERS = {
    "EASY": (0.0, {
        "backfill_attempts": 500, "backfill_starts": 146, "ecc_commands": 126,
        "schedule_cycles": 597, "schedule_passes": 897,
    }),
    "Delayed-LOS-E": (0.0, {
        "dp_cells": 895, "dp_invocations": 175, "ecc_commands": 126,
        "schedule_cycles": 719, "schedule_passes": 962,
    }),
    "Hybrid-LOS-E": (0.2, {
        "dp_cells": 526, "dp_invocations": 133, "ecc_commands": 126,
        "profile_rebuilds": 13, "schedule_cycles": 773, "schedule_passes": 1105,
    }),
}


class TestFitGateCounters:
    @pytest.mark.parametrize("name", sorted(PINNED_COUNTERS))
    def test_counters_match_pinned(self, name):
        """Skipping a freeze that cannot matter changes no decision and
        no counter; only ``profile_rebuilds`` may fall, as skipped
        dedicated freezes read the active list's release steps less."""
        p_dedicated, pinned = PINNED_COUNTERS[name]
        counters = dict(simulate(_counter_workload(p_dedicated), make_scheduler(name)).telemetry.counters)
        rebuilds = counters.pop("profile_rebuilds", 0)
        assert rebuilds <= pinned.get("profile_rebuilds", 0)
        assert counters == {k: v for k, v in pinned.items() if k != "profile_rebuilds"}
