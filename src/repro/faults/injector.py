"""Deterministic fault decisions (docs/resilience.md).

:class:`FaultInjector` turns a :class:`~repro.faults.model.FaultConfig`
into answers; it never touches a run.  The
:class:`~repro.experiments.runner.SimulationRunner` asks, schedules the
events and applies them:

- **NodeFail / NodeRepair** — a renewal process of pset failures.
  Inter-failure gaps are ``Exp(mtbf)`` and repair durations
  ``Exp(mttr)``, both drawn from one dedicated node stream.  Each
  failure takes a uniformly chosen online pset dark; the runner evicts
  whatever job holds it, chains the next failure and stops the chain
  as soon as no unfinished work remains so the event heap can drain.
- **JobFail** — per-attempt crashes.  Whether attempt ``k`` of job
  ``j`` crashes, and at which fraction of its runtime, is drawn from a
  stream seeded by ``SeedSequence((seed, j, k))`` — a function of the
  (job, attempt) pair alone, never of event interleaving, so the
  schedule is reproducible even though jobs start in policy-dependent
  order.  Poison jobs crash on every attempt.

The node stream is drawn in the order the runner asks: one gap at
construction, then per failure the pset index, its repair delay and
the next gap.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.faults.model import FaultConfig
from repro.workload.job import Job


class FaultInjector:
    """Answers what breaks when, for one simulation run.

    Args:
        config: The fault model to realize.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        #: Pset failures handed out by :meth:`pick_failure`; each takes
        #: an online pset offline.
        self.node_failures = 0
        self._poison = set(config.poison_jobs)
        # One stream for the whole node failure/repair renewal process;
        # drawn lazily event-by-event so the schedule adapts to the
        # run's length without a horizon parameter.
        self._node_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, 0xFA11))
        )

    def next_failure_gap(self) -> float:
        """Delay from now to the next pset failure."""
        return float(self._node_rng.exponential(self.config.mtbf))

    def pick_failure(self, online: Sequence[int]) -> Tuple[int, float]:
        """Which of the ``online`` psets fails, and its repair delay."""
        index = int(online[int(self._node_rng.integers(len(online)))])
        self.node_failures += 1
        return index, float(self._node_rng.exponential(self.config.mttr))

    def crash_delay(self, job: Job) -> Optional[float]:
        """Delay from the start of ``job``'s attempt to its crash, or ``None``.

        Attempt ``k`` (1-based, ``requeues + 1``) of job ``j`` draws its
        fate from the ``(seed, j, k)`` stream: one uniform for the crash
        decision, one for the crash point as a fraction of the attempt's
        runtime.  The crash instant lies strictly inside
        ``(start, start + runtime)`` whenever the runtime is positive,
        so a crash never races the job's own finish event.
        """
        config = self.config
        if not config.job_faults_enabled:
            return None
        rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, int(job.job_id), int(job.requeues + 1)))
        )
        doomed = job.job_id in self._poison
        if not doomed and config.p_job_fail > 0:
            doomed = float(rng.random()) < config.p_job_fail
        if not doomed:
            return None
        runtime = job.effective_runtime()
        return float(rng.uniform(0.05, 0.95)) * runtime


__all__ = ["FaultInjector"]
