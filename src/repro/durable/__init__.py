"""Durability layer: crash-safe persistence and exact resume.

Long replays and sweeps (docs/scaling.md) run for minutes to hours; a
crash, OOM kill or preemption must not cost the whole run.  This
package provides the pieces (docs/resilience.md):

- :mod:`repro.durable.atomic` — filesystem primitives every persistent
  artifact goes through: atomic write-tmp-fsync-rename, checksummed
  single-file containers;
- :mod:`repro.durable.checkpoint` — periodic crash-consistent
  checkpoints of a running :class:`~repro.experiments.runner.SimulationRunner`
  (schema ``repro.ckpt/1``) plus exact resume: a resumed run is
  bitwise-identical to an uninterrupted one — same
  :class:`~repro.metrics.records.RunMetrics`, same trace bytes;
- :mod:`repro.durable.signals` — SIGINT/SIGTERM handling that ends a
  run at a clean checkpoint and a sweep with a resumable exit code.

A crashed sweep needs no record of its own: the run cache
(:class:`~repro.experiments.cache.RunCache`) stores each result as it
lands, so re-running the sweep re-simulates only the specs that never
finished.
"""

from repro.durable.atomic import (
    CorruptFileError,
    atomic_write_bytes,
    checksummed_read,
    checksummed_write,
)
from repro.durable.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointConfig,
    CheckpointError,
    CheckpointInterrupt,
    inspect_checkpoint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    resume,
    save_checkpoint,
)
from repro.durable.signals import EXIT_INTERRUPTED, SignalFlag, graceful_shutdown, sigterm_as_interrupt

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointConfig",
    "CheckpointError",
    "CheckpointInterrupt",
    "CorruptFileError",
    "EXIT_INTERRUPTED",
    "SignalFlag",
    "atomic_write_bytes",
    "checksummed_read",
    "checksummed_write",
    "graceful_shutdown",
    "inspect_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "resume",
    "save_checkpoint",
    "sigterm_as_interrupt",
]
