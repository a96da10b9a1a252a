"""The CWF workload generator (paper §IV-C/§IV-D, Figure 3).

Composes the statistical pieces into a complete heterogeneous, elastic
workload:

- arrival times from the Lublin arrival process (``β_arr`` is the load
  knob),
- sizes from the two-stage uniform BlueGene/P model (``P_S`` knob),
- runtimes from the size-correlated hyper-Gamma (Table I),
- a job is dedicated with probability ``P_D``; its rigid requested
  start time is ``submit + Exp(mean)``,
- ET commands injected with probability ``P_E`` and RT with ``P_R``
  per job; amounts are exponential (§IV-D, last paragraph).

The output :class:`Workload` is a value object: experiments copy jobs
per run so one generated workload can be scheduled by all algorithms
under identical conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, List, Tuple, Union

import numpy as np

from repro.workload.cwf import CWFRecord, write_cwf
from repro.workload.ecc import ECC, ECCKind
from repro.workload.job import Job, JobKind
from repro.workload.load import load_from, offered_load, span_of, total_work
from repro.workload.lublin import LublinConfig, LublinModel
from repro.workload.twostage import TwoStageSizeConfig, TwoStageSizeModel


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the CWF workload generator.

    Attributes:
        n_jobs: Jobs per experiment (the paper's ``N_J = 500``).
        machine_size: Simulated machine size ``M`` (320).
        size: Two-stage uniform size model parameters (``P_S`` inside).
        lublin: Runtime + arrival parameters (Tables I–II); the size
            part of the Lublin config is unused here because sizes come
            from the two-stage model.
        p_dedicated: The paper's ``P_D``.
        dedicated_start_mean: Mean of the exponential offset between a
            dedicated job's submission and its rigid requested start.
        p_extend / p_reduce: The paper's ``P_E`` / ``P_R`` ECC
            injection probabilities (0.2 / 0.1 in §IV-D when elastic).
        ecc_amount_mean: Mean of the exponential ET/RT amount, as a
            fraction of the job's estimated runtime.  Relative amounts
            keep commands meaningful across the wide runtime range.
        ecc_issue_mean_fraction: Mean (fraction of estimate) of the
            exponential delay after submission at which an ECC is
            issued.
        estimate_factor: User over-estimation factor; estimates are
            ``actual * estimate_factor`` (1.0 = perfect estimates, the
            paper's model; 2.0 reproduces Mu'alem's observation).
        integral_times: Round arrivals/runtimes to whole seconds, as
            SWF logs are integral.
    """

    n_jobs: int = 500
    machine_size: int = 320
    size: TwoStageSizeConfig = field(default_factory=TwoStageSizeConfig)
    lublin: LublinConfig = field(default_factory=LublinConfig)
    p_dedicated: float = 0.0
    dedicated_start_mean: float = 3600.0
    p_extend: float = 0.0
    p_reduce: float = 0.0
    #: Probability a job is user-cancelled (SWF status-5 behaviour);
    #: the cancellation instant is submit + Exp(cancel_mean_fraction
    #: x estimate), so short-queued jobs usually run before it fires.
    p_cancel: float = 0.0
    cancel_mean_fraction: float = 2.0
    ecc_amount_mean: float = 0.5
    ecc_issue_mean_fraction: float = 0.5
    estimate_factor: float = 1.0
    integral_times: bool = True

    def __post_init__(self) -> None:
        if self.n_jobs < 0:
            raise ValueError(f"n_jobs must be non-negative, got {self.n_jobs}")
        if self.machine_size < self.size.max_size():
            raise ValueError(
                f"machine size {self.machine_size} cannot fit the largest "
                f"generated job ({self.size.max_size()})"
            )
        for name in ("p_dedicated", "p_extend", "p_reduce", "p_cancel"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.estimate_factor < 1.0:
            raise ValueError(
                f"estimate_factor must be >= 1 (estimates bound runtimes), "
                f"got {self.estimate_factor}"
            )
        for name in (
            "dedicated_start_mean",
            "ecc_amount_mean",
            "ecc_issue_mean_fraction",
            "cancel_mean_fraction",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def with_beta_arr(self, beta_arr: float) -> "GeneratorConfig":
        """Copy with a different arrival-rate (load) knob."""
        return replace(self, lublin=self.lublin.with_beta_arr(beta_arr))

    def with_p_small(self, p_small: float) -> "GeneratorConfig":
        """Copy with a different ``P_S`` (packing-properties knob)."""
        return replace(self, size=replace(self.size, p_small=p_small))


@dataclass
class Workload:
    """A generated (or loaded) workload ready for simulation.

    Iterating a workload yields the runner's feed: pristine per-run
    job copies and the ECCs merged in time order, each submission
    ahead of the commands issued at its instant.  The workload itself
    is never mutated, so one object can feed every algorithm of a
    sweep, and a checkpoint resume re-iterates it to rebuild its feed.
    """

    jobs: List[Job]
    eccs: List[ECC] = field(default_factory=list)
    machine_size: int = 320
    granularity: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        self.jobs.sort(key=lambda j: (j.submit, j.job_id))
        self.eccs.sort(key=lambda e: (e.issue_time, e.job_id))

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def batch_jobs(self) -> List[Job]:
        """Jobs scheduled flexibly by the scheduler."""
        return [j for j in self.jobs if not j.is_dedicated]

    @property
    def dedicated_jobs(self) -> List[Job]:
        """Jobs with rigid requested start times."""
        return [j for j in self.jobs if j.is_dedicated]

    def offered_load(self) -> float:
        """The paper's Load formula over this workload."""
        return offered_load(self.jobs, self.machine_size)

    def __iter__(self) -> Iterator[Union[Job, ECC]]:
        eccs = self.eccs
        n_eccs = len(eccs)
        i = 0
        for job in self.jobs:
            submit = job.submit
            while i < n_eccs and eccs[i].issue_time < submit:
                yield eccs[i]
                i += 1
            yield job.copy_for_run()
        yield from eccs[i:]

    def scale_arrivals(self, factor: float) -> "Workload":
        """New workload with arrival times multiplied by ``factor``.

        This is how [7] (and the paper's Figure 1) varies load on a
        fixed log: stretching inter-arrival gaps lowers load, while
        sizes and runtimes — the packing properties — stay untouched.
        Dedicated start offsets are preserved relative to submission.
        """
        if factor <= 0:
            raise ValueError(f"arrival scale factor must be positive, got {factor}")
        scaled = []
        for job in self.jobs:
            start = None
            if job.requested_start is not None:
                start = job.submit * factor + (job.requested_start - job.submit)
            cancel = None
            if job.cancel_at is not None:
                # Preserve the queue-side patience relative to submission.
                cancel = job.submit * factor + (job.cancel_at - job.submit)
            scaled.append(
                Job(
                    job_id=job.job_id,
                    submit=job.submit * factor,
                    num=job.num,
                    estimate=job.original_estimate,
                    actual=job.actual,
                    kind=job.kind,
                    requested_start=start,
                    cancel_at=cancel,
                )
            )
        ratio = {job.job_id: job.submit for job in self.jobs}
        eccs = [
            ECC(
                job_id=e.job_id,
                issue_time=e.issue_time + ratio[e.job_id] * (factor - 1.0),
                kind=e.kind,
                amount=e.amount,
            )
            for e in self.eccs
        ]
        return Workload(
            jobs=scaled,
            eccs=eccs,
            machine_size=self.machine_size,
            granularity=self.granularity,
            description=f"{self.description} (arrivals x{factor:g})".strip(),
        )

    def to_cwf(self, target: Union[str, Path]) -> None:
        """Write the workload (submissions + ECCs) as a CWF file."""
        records: List[tuple[float, int, CWFRecord]] = []
        for job in self.jobs:
            records.append((job.submit, 0, CWFRecord.from_job(job)))
        for ecc in self.eccs:
            records.append((ecc.issue_time, 1, CWFRecord.from_ecc(ecc)))
        records.sort(key=lambda item: (item[0], item[1], item[2].job_id))
        write_cwf(
            (record for _, _, record in records),
            target,
            header=[
                f"Cloud Workload Format; {len(self.jobs)} jobs, {len(self.eccs)} ECCs",
                f"MaxProcs: {self.machine_size}",
                self.description or "generated by repro.workload.generator",
            ],
        )


class CWFWorkloadGenerator:
    """Synthesizes :class:`Workload` objects from a :class:`GeneratorConfig`."""

    def __init__(self, config: GeneratorConfig = GeneratorConfig()) -> None:
        self.config = config
        self._sizes = TwoStageSizeModel(config.size)
        self._lublin = LublinModel(config.lublin)

    # ------------------------------------------------------------------
    def generate(self, rng: np.random.Generator) -> Workload:
        """Draw one complete workload."""
        cfg = self.config
        jobs: List[Job] = []
        eccs: List[ECC] = []
        for job, commands in self._draw(rng):
            jobs.append(job)
            eccs.extend(commands)
        return Workload(
            jobs=jobs,
            eccs=eccs,
            machine_size=cfg.machine_size,
            granularity=cfg.size.granularity,
            description=(
                f"CWF synthetic: N={cfg.n_jobs} P_S={cfg.size.p_small:g} "
                f"P_D={cfg.p_dedicated:g} P_E={cfg.p_extend:g} P_R={cfg.p_reduce:g} "
                f"beta_arr={cfg.lublin.beta_arr:g}"
            ),
        )

    def load_probe(self, rng: np.random.Generator) -> "LoadProbe":
        """The offered load of ``generate(rng)`` at any ``beta_arr``.

        Draws the β-free inputs of the load once, from the same
        substreams :meth:`generate` reads: the standard-Gamma gaps, the
        quota stream, and each job's size and effective runtime.  The
        per-job draw is run with a placeholder arrival, which is sound
        because it never reads the arrival to decide what it draws.
        This generator's own ``beta_arr`` is not read.
        """
        gaps, quotas, attr_rng, _ = self._substreams(rng)
        draw_job = self._job_sampler(attr_rng)
        jobs = [draw_job(index, 0.0) for index in range(1, self.config.n_jobs + 1)]
        return LoadProbe(
            config=self.config,
            gaps=tuple(gaps),
            quotas=_Replay(quotas),
            runtimes=tuple(job.effective_runtime() for job in jobs),
            work=total_work(jobs),
        )

    def _substreams(
        self, rng: np.random.Generator
    ) -> Tuple[Iterator[float], Iterator[int], np.random.Generator, np.random.Generator]:
        """Split ``rng`` into the draw's independent substreams.

        Returns the lazy gap and quota draws of the arrivals, then the
        job-attribute and ECC generators.  Only the arrivals depend on
        the load knob (``beta_arr``), and they only stretch the gap
        draws (see LublinModel.arrivals_from), so attributes and ECCs
        are identical across calibration probes and the load is smooth
        in the one dimension the bisection sweeps.
        """
        arrival_rng, attr_rng, ecc_rng = rng.spawn(3)
        gaps, quotas = self._lublin.arrival_draws(self.config.n_jobs, arrival_rng)
        return gaps, quotas, attr_rng, ecc_rng

    def _draw(self, rng: np.random.Generator) -> Iterator[Tuple[Job, List[ECC]]]:
        """Yield each job with its commands, in arrival order.

        The one per-job draw behind :meth:`generate` and
        :class:`~repro.workload.streaming.SyntheticWorkloadStream`, so
        both produce the same workload from the same seed.
        """
        gaps, quotas, attr_rng, ecc_rng = self._substreams(rng)
        arrivals = self._lublin.arrivals_from(gaps, quotas)
        draw_job, draw_eccs = self._job_sampler(attr_rng), self._ecc_sampler(ecc_rng)
        for index, arrival in enumerate(arrivals, start=1):
            job = draw_job(index, arrival)
            yield job, draw_eccs(job)

    # ------------------------------------------------------------------
    # The per-job draws bind the config's constants and the substream's
    # methods once, so a job costs its numpy calls, the size and
    # runtime models' draws and the constructors.  The attribute and
    # ECC draws interleave rejection samplers (Gamma) with uniforms, so
    # they stay scalar: a block draw would reorder the bits they read.
    def _job_sampler(self, rng: np.random.Generator) -> Callable[[int, float], Job]:
        """The job-attribute draw bound to ``rng``: ``(job_id, arrival) -> Job``."""
        cfg = self.config
        draw_size = self._sizes.sampler(rng)
        draw_runtime = self._lublin.runtime_sampler(rng)
        random, exponential = rng.random, rng.exponential
        integral_times = cfg.integral_times
        round_time = _whole_seconds if integral_times else float
        estimate_factor = cfg.estimate_factor
        p_cancel, cancel_mean_fraction = cfg.p_cancel, cfg.cancel_mean_fraction
        p_dedicated, dedicated_start_mean = cfg.p_dedicated, cfg.dedicated_start_mean

        def draw(job_id: int, arrival: float) -> Job:
            size = draw_size()
            actual = round_time(draw_runtime(size))
            estimate = round_time(actual * estimate_factor)
            submit = _submit_time(arrival, integral_times)
            cancel_at = None
            if p_cancel > 0.0 and random() < p_cancel:
                cancel_at = submit + round_time(exponential(cancel_mean_fraction * actual))
            if random() < p_dedicated:
                offset = round_time(exponential(dedicated_start_mean))
                return Job(job_id, submit, size, estimate, actual, JobKind.DEDICATED,
                           submit + offset, cancel_at=cancel_at)
            return Job(job_id, submit, size, estimate, actual, cancel_at=cancel_at)

        return draw

    def _ecc_sampler(self, rng: np.random.Generator) -> Callable[[Job], List[ECC]]:
        """The ECC draw bound to ``rng``: a job's ET then RT commands.

        A kind with probability 0 draws nothing, so a batch-only config
        never reads ``rng``.
        """
        cfg = self.config
        kinds = tuple(
            (kind, probability)
            for kind, probability in (
                (ECCKind.EXTEND_TIME, cfg.p_extend),
                (ECCKind.REDUCE_TIME, cfg.p_reduce),
            )
            if probability > 0.0
        )
        random, exponential = rng.random, rng.exponential
        round_time = _whole_seconds if cfg.integral_times else float
        amount_mean, issue_mean_fraction = cfg.ecc_amount_mean, cfg.ecc_issue_mean_fraction

        def draw(job: Job) -> List[ECC]:
            commands: List[ECC] = []
            for kind, probability in kinds:
                if random() < probability:
                    estimate = job.estimate
                    amount = round_time(exponential(amount_mean * estimate))
                    issue_offset = exponential(issue_mean_fraction * estimate)
                    commands.append(
                        ECC(job.job_id, round_time(job.submit + issue_offset), kind, amount)
                    )
            return commands

        return draw


def _whole_seconds(value: float) -> float:
    """A time rounded to whole seconds, at least one (SWF logs are integral)."""
    return float(max(1, round(value)))


def _submit_time(arrival: float, integral_times: bool) -> float:
    """A job's submission instant: its arrival, whole seconds if integral."""
    return float(round(arrival)) if integral_times else arrival


class _Replay:
    """Replays a lazy draw stream: every pass reads the same values, and
    each is drawn from the stream once, when a pass first needs it."""

    def __init__(self, draws: Iterator[int]) -> None:
        self._draws = draws
        self._seen: List[int] = []

    def __iter__(self) -> Iterator[int]:
        seen = self._seen
        for index in itertools.count():
            if index == len(seen):
                seen.append(next(self._draws))
            yield seen[index]


@dataclass(frozen=True)
class LoadProbe:
    """One workload's offered load as a function of ``beta_arr``.

    Built by :meth:`CWFWorkloadGenerator.load_probe` from the β-free
    draws of a ``(config, seed)`` workload.  Each :meth:`load` call
    reruns only the arrival recurrence at its β and the span and Load
    formulas over the cached runtimes and work — O(n) float arithmetic
    — and equals ``CWFWorkloadGenerator(config.with_beta_arr(beta_arr))
    .generate(rng).offered_load()`` bit for bit: the jobs come out in
    arrival order, which is the workload's sorted order, so the work
    sum adds the same terms in the same order.
    """

    config: GeneratorConfig
    gaps: Tuple[float, ...]
    quotas: _Replay
    runtimes: Tuple[float, ...]
    work: float

    def load(self, beta_arr: float) -> float:
        """The workload's offered load at ``beta_arr``."""
        cfg = self.config.with_beta_arr(beta_arr)
        arrivals = LublinModel(cfg.lublin).arrivals_from(self.gaps, iter(self.quotas))
        integral_times = cfg.integral_times
        submits = [_submit_time(arrival, integral_times) for arrival in arrivals]
        return load_from(self.work, span_of(submits, self.runtimes), cfg.machine_size)


__all__ = ["CWFWorkloadGenerator", "GeneratorConfig", "LoadProbe", "Workload"]
