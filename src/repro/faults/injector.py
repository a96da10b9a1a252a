"""Deterministic fault event injection (docs/resilience.md).

:class:`FaultInjector` turns a :class:`~repro.faults.model.FaultConfig`
into concrete simulation events on a
:class:`~repro.experiments.runner.SimulationRunner`:

- **NodeFail / NodeRepair** — a renewal process of pset failures.
  Inter-failure gaps are ``Exp(mtbf)`` and repair durations
  ``Exp(mttr)``, both drawn from one dedicated node stream.  Each
  failure takes a uniformly chosen online pset dark (evicting whatever
  job holds it) and chains the next failure event; the chain stops as
  soon as no unfinished work remains so the event heap can drain.
- **JobFail** — per-attempt crashes.  Whether attempt ``k`` of job
  ``j`` crashes, and at which fraction of its runtime, is drawn from a
  stream seeded by ``SeedSequence((seed, j, k))`` — a function of the
  (job, attempt) pair alone, never of event interleaving, so the
  schedule is reproducible even though jobs start in policy-dependent
  order.  Poison jobs crash on every attempt.

All events fire at :attr:`~repro.sim.events.EventPriority.FAULT`:
after same-instant finishes (a job completing exactly when its pset
dies has completed) and before arrivals and scheduler cycles (the
cycle sees post-fault capacity).

The injector decides *what breaks when*; the runner's
``_fail_running_job`` owns the recovery policy (requeue, backoff,
checkpoint credit, retry exhaustion).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.faults.model import FaultConfig
from repro.sim.events import Event, EventPriority
from repro.workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.runner import SimulationRunner


class FaultInjector:
    """Schedules fault events for one simulation run.

    Args:
        runner: The owning simulation runner (machine must have
            ``track_placement=True`` when node faults are enabled).
        config: The fault model to realize.
    """

    def __init__(self, runner: "SimulationRunner", config: FaultConfig) -> None:
        self.runner = runner
        self.config = config
        #: Completed NodeFail events that actually took a pset offline.
        self.node_failures = 0
        self._poison = set(config.poison_jobs)
        # One stream for the whole node failure/repair renewal process;
        # drawn lazily event-by-event so the schedule adapts to the
        # run's length without a horizon parameter.
        self._node_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, 0xFA11))
        )
        self._job_fail_events: Dict[int, Event] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule the first node failure (call once, before run())."""
        if self.config.node_faults_enabled:
            gap = float(self._node_rng.exponential(self.config.mtbf))
            self.runner.sim.schedule_in(
                gap,
                self._on_node_fail,
                priority=EventPriority.FAULT,
                name="node-fail",
            )

    # ------------------------------------------------------------------
    # Node failure / repair chain
    # ------------------------------------------------------------------
    def _work_remains(self) -> bool:
        """Whether any job may still need the machine.

        Delegated to the runner, which knows whether the workload is
        fully materialized or still streaming in.
        """
        return self.runner.work_remains()

    def _on_node_fail(self) -> None:
        if not self._work_remains():
            # Nothing left to disturb: stop the chain so the heap can
            # drain (outstanding repairs still fire and close the
            # degraded-time window).
            return
        machine = self.runner.machine
        online = machine.online_units()
        if online:
            index = int(online[int(self._node_rng.integers(len(online)))])
            now = self.runner.sim.now
            evicted = machine.fail_unit(index, time=now)
            self.node_failures += 1
            writer = self.runner._trace_writer
            if writer is not None:
                writer.write((now, "node-fail", {"unit": index, "evicted": evicted}))
            if evicted is not None:
                job = self.runner._jobs_by_id[int(evicted)]
                self.cancel_job_failure(job)
                # fail_unit already released the allocation in full
                self.runner._fail_running_job(job, release=False, reason="evicted")
            repair = float(self._node_rng.exponential(self.config.mttr))
            self.runner.sim.schedule_in(
                repair,
                # partial, not a lambda: scheduled actions must stay
                # picklable for checkpointing (repro.durable).
                partial(self._on_node_repair, index),
                priority=EventPriority.FAULT,
                name=f"node-repair#{index}",
            )
        gap = float(self._node_rng.exponential(self.config.mtbf))
        self.runner.sim.schedule_in(
            gap,
            self._on_node_fail,
            priority=EventPriority.FAULT,
            name="node-fail",
        )

    def _on_node_repair(self, index: int) -> None:
        now = self.runner.sim.now
        self.runner.machine.repair_unit(index, time=now)
        writer = self.runner._trace_writer
        if writer is not None:
            writer.write((now, "node-repair", {"unit": index}))
        # Returned capacity may unblock the queue head immediately.
        self.runner._request_cycle()

    # ------------------------------------------------------------------
    # Per-attempt job failures
    # ------------------------------------------------------------------
    def _attempt_rng(self, job_id: int, attempt: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.config.seed, int(job_id), int(attempt)))
        )

    def on_job_start(self, job: Job) -> None:
        """Decide whether this attempt crashes; schedule the crash.

        Called by the runner right after a job starts.  Attempt ``k``
        (1-based, ``requeues + 1``) of job ``j`` draws its fate from
        the ``(seed, j, k)`` stream: one uniform for the crash
        decision, one for the crash point as a fraction of the
        attempt's runtime.  The crash instant lies strictly inside
        ``(start, start + runtime)`` whenever the runtime is positive,
        so a crash never races the job's own finish event.
        """
        if not self.config.job_faults_enabled:
            return
        attempt = job.requeues + 1
        rng = self._attempt_rng(job.job_id, attempt)
        doomed = job.job_id in self._poison
        if not doomed and self.config.p_job_fail > 0:
            doomed = float(rng.random()) < self.config.p_job_fail
        if not doomed:
            return
        runtime = job.effective_runtime()
        frac = float(rng.uniform(0.05, 0.95))
        self._job_fail_events[job.job_id] = self.runner.sim.schedule_in(
            frac * runtime,
            partial(self._on_job_fail, job),
            priority=EventPriority.FAULT,
            name=f"job-fail#{job.job_id}",
        )

    def _on_job_fail(self, job: Job) -> None:
        self._job_fail_events.pop(job.job_id, None)
        if job.state is not JobState.RUNNING:
            # Stale: the job was evicted or terminated (e.g. by an RT
            # ECC) between scheduling and firing.
            return
        self.runner._fail_running_job(job, release=True, reason="crash")

    def cancel_job_failure(self, job: Job) -> None:
        """Drop the pending crash event, if any (finish or eviction)."""
        event = self._job_fail_events.pop(job.job_id, None)
        if event is not None:
            event.cancel()


__all__ = ["FaultInjector"]
