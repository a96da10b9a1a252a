"""Tests for the algorithm registry (Table III)."""

from __future__ import annotations

import pytest

from repro.core.delayed_los import DelayedLOS
from repro.core.easy import EasyBackfill
from repro.core.hybrid_los import HybridLOS
from repro.core.registry import ALGORITHMS, make_scheduler

#: The twelve rows of Table III.
TABLE_III = [
    ("EASY", "Batch", False),
    ("EASY-D", "Heterogeneous", False),
    ("EASY-E", "Batch", True),
    ("EASY-DE", "Heterogeneous", True),
    ("LOS", "Batch", False),
    ("LOS-D", "Heterogeneous", False),
    ("LOS-E", "Batch", True),
    ("LOS-DE", "Heterogeneous", True),
    ("Delayed-LOS", "Batch", False),
    ("Hybrid-LOS", "Heterogeneous", False),
    ("Delayed-LOS-E", "Batch", True),
    ("Hybrid-LOS-E", "Heterogeneous", True),
]


class TestTableIII:
    def test_all_twelve_algorithms_present(self):
        for name, _, _ in TABLE_III:
            assert name in ALGORITHMS

    @pytest.mark.parametrize("name,workload,ecc", TABLE_III)
    def test_scope_matches_table(self, name, workload, ecc):
        scheduler = make_scheduler(name)
        assert scheduler.handles_dedicated == (workload == "Heterogeneous")
        assert scheduler.elastic == ecc
        assert scheduler.name == name  # canonical registry spelling

    def test_extra_baselines_available(self):
        assert not make_scheduler("FCFS").handles_dedicated
        assert not make_scheduler("CONSERVATIVE").elastic


class TestConstruction:
    def test_classes(self):
        # One class per family: the -D and C_s = 0 rows are parameters.
        assert type(make_scheduler("EASY")) is EasyBackfill
        assert type(make_scheduler("EASY-D")) is EasyBackfill
        assert type(make_scheduler("LOS")) is DelayedLOS
        assert type(make_scheduler("LOS-D")) is HybridLOS
        assert type(make_scheduler("Delayed-LOS")) is DelayedLOS
        assert type(make_scheduler("Hybrid-LOS")) is HybridLOS

    def test_cs_reaches_delayed_and_hybrid(self):
        assert make_scheduler("Delayed-LOS", max_skip_count=12).max_skip_count == 12
        assert make_scheduler("Hybrid-LOS", max_skip_count=12).max_skip_count == 12

    def test_cs_pinned_for_los_family(self):
        # LOS's behaviour IS C_s = 0; the knob must not leak into it.
        assert make_scheduler("LOS", max_skip_count=12).max_skip_count == 0
        assert make_scheduler("LOS-D", max_skip_count=12).max_skip_count == 0

    def test_lookahead_propagates(self):
        assert make_scheduler("LOS", lookahead=25).lookahead == 25
        assert make_scheduler("Delayed-LOS", lookahead=None).lookahead is None

    @pytest.mark.parametrize(
        "name",
        ["LOS", "LOS-D", "LOS-E", "LOS-DE", "Delayed-LOS", "Delayed-LOS-E",
         "Hybrid-LOS", "Hybrid-LOS-E", "ADAPTIVE", "ADAPTIVE-E"],
    )
    @pytest.mark.parametrize("lookahead", [0, -1])
    def test_lookahead_below_one_rejected(self, name, lookahead):
        with pytest.raises(ValueError, match="lookahead must be at least 1"):
            make_scheduler(name, lookahead=lookahead)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="EASY-DE"):
            make_scheduler("NOPE")

    def test_instances_are_fresh(self):
        a = make_scheduler("Delayed-LOS")
        b = make_scheduler("Delayed-LOS")
        assert a is not b
