"""Discrete-event simulation substrate.

This subpackage replaces the GridSim + ALEA 2 Java stack used by the
paper with a small, deterministic discrete-event engine:

- :mod:`repro.sim.events` — event records and stable ordering rules,
- :mod:`repro.sim.engine` — the :class:`~repro.sim.engine.Simulator`
  event loop (heap-based, cancellable events, run-until semantics),
- :mod:`repro.sim.trace` — the trace record type; a traced run writes
  its records to a JSONL file (:mod:`repro.obs.trace_io`) that tests
  and the experiment harness read back to audit simulations.

The engine is intentionally minimal: scheduling research only needs a
clock, an ordered event heap and deterministic tie-breaking.  Everything
domain-specific (machines, queues, schedulers) lives in sibling
subpackages and communicates through plain callbacks.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.events import Event, EventPriority
from repro.sim.trace import TraceRecord

__all__ = [
    "Event",
    "EventPriority",
    "SimulationError",
    "Simulator",
    "TraceRecord",
]
