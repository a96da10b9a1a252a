"""Tests for Basic_DP and Reservation_DP, including brute-force
equivalence (the DPs must be *exact* knapsack solvers)."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dp import (
    _solve_basic_bitset,
    _solve_reservation_bitset,
    basic_dp,
    reservation_dp,
)
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
