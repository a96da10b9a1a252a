"""Machine model for a BlueGene/P-style parallel system.

The paper simulates IBM's BlueGene/P as a flat pool of ``M = 320``
processors allocated in multiples of 32 (one pset).  This subpackage
provides:

- :class:`~repro.cluster.machine.Machine` — capacity-checked
  allocate/release with granularity enforcement,
- :class:`~repro.cluster.accounting.UtilizationTracker` — exact
  integration of busy processor-seconds, from which the paper's mean
  utilization metric is computed.
"""

from repro.cluster.accounting import UtilizationTracker
from repro.cluster.machine import AllocationError, Machine
from repro.cluster.partition import FragmentationError, PartitionedMachine

__all__ = [
    "AllocationError",
    "FragmentationError",
    "Machine",
    "PartitionedMachine",
    "UtilizationTracker",
]
