"""Fault injection and resilience (docs/resilience.md).

The paper evaluates its schedulers on an idealized failure-free
BlueGene/P; this subpackage adds the disruption model a
production-scale system must survive:

- :mod:`repro.faults.model` — declarative, seeded fault configuration
  (:class:`FaultConfig`: MTBF/MTTR pset failures, per-job failure
  probability, poison jobs) and the requeue-and-retry policy
  (:class:`RetryPolicy`), plus the CLI spec parsers,
- :mod:`repro.faults.injector` — :class:`FaultInjector`, which holds
  the fault streams and answers when the next pset fails, which one
  and for how long, and when a job attempt crashes.  The
  :class:`~repro.experiments.runner.SimulationRunner` schedules those
  answers as ``NodeFail``/``NodeRepair``/``JobFail`` events and applies
  them: eviction, lost-work accounting, checkpoint-aware requeueing
  and retry exhaustion.

Everything is deterministic given ``FaultConfig.seed``: the node
failure/repair stream is one substream, and each (job, attempt) pair
draws from its own :class:`numpy.random.SeedSequence`-derived stream,
so outcomes do not depend on event interleaving.
"""

from repro.faults.injector import FaultInjector
from repro.faults.model import (
    FaultConfig,
    RetryPolicy,
    format_faults_spec,
    parse_faults_spec,
)

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "RetryPolicy",
    "format_faults_spec",
    "parse_faults_spec",
]
