"""Unit and property tests for exact utilization integration."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cluster.accounting import UtilizationTracker


class TestObservation:
    def test_simple_rectangle(self):
        tracker = UtilizationTracker(start_time=0.0)
        tracker.observe(0.0, 10)
        tracker.observe(5.0, 0)
        assert tracker.busy_area() == 50.0
        assert tracker.mean_utilization(10, until=10.0) == pytest.approx(0.5)

    def test_step_function(self):
        tracker = UtilizationTracker()
        tracker.observe(0.0, 4)
        tracker.observe(2.0, 8)  # 4*2 = 8
        tracker.observe(5.0, 2)  # 8*3 = 24
        tracker.observe(10.0, 0)  # 2*5 = 10
        assert tracker.busy_area() == 8 + 24 + 10

    def test_same_instant_updates_collapse(self):
        # Several alloc/release at one instant: only the final level
        # occupies time.
        tracker = UtilizationTracker()
        tracker.observe(0.0, 10)
        tracker.observe(1.0, 20)
        tracker.observe(1.0, 5)
        tracker.observe(2.0, 0)
        assert tracker.busy_area() == 10 + 5

    def test_time_going_backwards_raises(self):
        tracker = UtilizationTracker()
        tracker.observe(5.0, 1)
        with pytest.raises(ValueError, match="time-ordered"):
            tracker.observe(4.0, 2)

    def test_horizon_extension_assumes_current_level(self):
        tracker = UtilizationTracker()
        tracker.observe(0.0, 10)
        assert tracker.busy_area(until=4.0) == 40.0

    def test_horizon_before_last_observation_raises(self):
        # The step function before the last observation is not kept:
        # an earlier horizon is refused, never approximated.
        tracker = UtilizationTracker()
        tracker.observe(0.0, 10)
        tracker.observe(10.0, 0)
        with pytest.raises(ValueError, match="precedes the last observation"):
            tracker.busy_area(until=5.0)
        with pytest.raises(ValueError, match="precedes the last observation"):
            tracker.mean_utilization(10, until=5.0)
        assert tracker.busy_area(until=10.0) == 100.0

    def test_zero_span_utilization_is_zero(self):
        tracker = UtilizationTracker(start_time=3.0)
        assert tracker.mean_utilization(100, until=3.0) == 0.0


@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=320),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_integral_matches_manual_sum(steps):
    """Property: incremental integration equals the closed-form sum."""
    tracker = UtilizationTracker(start_time=0.0)
    now = 0.0
    expected = 0.0
    level = 0
    for delta, new_level in steps:
        expected += level * delta
        now += delta
        tracker.observe(now, new_level)
        level = new_level
    assert tracker.busy_area(until=now) == pytest.approx(expected, rel=1e-9, abs=1e-9)
    mean = tracker.mean_utilization(320, until=now)
    assert 0.0 <= mean <= 1.0
