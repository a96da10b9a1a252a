"""Pset failure/repair mechanics of the placement-tracking machine."""

from __future__ import annotations

import pytest

from repro.cluster.machine import AllocationError, Machine
from repro.cluster.partition import PartitionedMachine


@pytest.fixture
def machine() -> Machine:
    return Machine(total=128, granularity=32, track_placement=True)


class TestFailRepair:
    def test_fail_free_unit_shrinks_capacity(self, machine: Machine) -> None:
        assert machine.fail_unit(0) is None
        assert machine.offline == 32
        assert machine.available == 96
        assert machine.free == 96
        assert machine.degraded
        machine.check_invariants()

    def test_fail_owned_unit_evicts_in_full(self, machine: Machine) -> None:
        machine.allocate("job", 64)
        index = machine._unit_of["job"][0]
        assert machine.fail_unit(index) == "job"
        # the whole allocation is gone, not just the failed pset
        assert not machine.holds("job")
        assert machine.used == 0
        assert machine.free == 96
        machine.check_invariants()

    def test_allocation_avoids_offline_psets(self, machine: Machine) -> None:
        machine.fail_unit(0)
        machine.allocate("a", 96)
        assert 0 not in machine._unit_of["a"]
        with pytest.raises(AllocationError):
            machine.allocate("b", 32)
        machine.check_invariants()

    def test_growth_avoids_offline_psets(self, machine: Machine) -> None:
        machine.allocate("a", 32)
        machine.fail_unit(1)
        machine.resize("a", 96)
        assert machine._unit_of["a"] == [0, 2, 3]
        with pytest.raises(AllocationError, match="cannot grow"):
            machine.resize("a", 128)
        machine.check_invariants()

    def test_repair_restores_capacity(self, machine: Machine) -> None:
        machine.fail_unit(2)
        machine.repair_unit(2)
        assert machine.offline == 0
        assert machine.free == 128
        assert not machine.degraded
        machine.allocate("a", 128)
        machine.check_invariants()

    def test_fail_errors(self, machine: Machine) -> None:
        with pytest.raises(AllocationError):
            machine.fail_unit(99)
        machine.fail_unit(1)
        with pytest.raises(AllocationError):
            machine.fail_unit(1)
        with pytest.raises(AllocationError):
            machine.repair_unit(0)

    def test_faults_require_placement_tracking(self) -> None:
        plain = Machine(total=128, granularity=32)
        with pytest.raises(AllocationError, match="track_placement"):
            plain.fail_unit(0)
        with pytest.raises(AllocationError):
            plain.online_units()

    def test_online_units(self, machine: Machine) -> None:
        assert machine.online_units() == [0, 1, 2, 3]
        machine.fail_unit(1)
        assert machine.online_units() == [0, 2, 3]


class TestDegradedTime:
    def test_integral_over_overlapping_outages(self, machine: Machine) -> None:
        machine.fail_unit(0, time=10.0)
        machine.fail_unit(1, time=20.0)
        machine.repair_unit(0, time=30.0)
        # still degraded: pset 1 remains offline
        assert machine.degraded_time(until=40.0) == pytest.approx(30.0)
        machine.repair_unit(1, time=50.0)
        assert machine.degraded_time(until=100.0) == pytest.approx(40.0)

    def test_healthy_machine_has_zero_degraded_time(self, machine: Machine) -> None:
        assert machine.degraded_time(until=1000.0) == 0.0

    def test_horizon_before_last_fault_raises(self, machine: Machine) -> None:
        # Outage [0, 10] closed at t=10: a horizon of 5 would need the
        # open segment the machine no longer holds.
        machine.fail_unit(0, time=0.0)
        machine.repair_unit(0, time=10.0)
        with pytest.raises(ValueError, match="precedes the last pset"):
            machine.degraded_time(until=5.0)
        assert machine.degraded_time(until=10.0) == 10.0


class TestPartitionedFaults:
    def test_fail_evicts_and_breaks_runs(self) -> None:
        part = PartitionedMachine(total=128, granularity=32)
        part.allocate("a", 64)
        assert part.fail_unit(0) == "a"
        assert part.span_of("a") is None
        # the offline pset splits the free space
        assert part.free_runs() == [(1, 3)]
        assert part.free == 96
        part.check_invariants()

    def test_compact_degraded_avoids_offline_psets(self) -> None:
        part = PartitionedMachine(total=160, granularity=32)
        part.allocate("a", 32)  # unit 0
        part.allocate("b", 32)  # unit 1
        part.release("a")
        part.fail_unit(0)
        moved = part.compact()
        assert moved >= 0
        part.check_invariants()
        span = part.span_of("b")
        assert span is not None and span[0] != 0

    def test_repair_restores_run(self) -> None:
        part = PartitionedMachine(total=128, granularity=32)
        part.fail_unit(2)
        assert not part.fits_contiguously(128)
        part.repair_unit(2)
        assert part.fits_contiguously(128)
        part.check_invariants()
