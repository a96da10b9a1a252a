"""Downey's workload model (1997) — an alternative to Lublin.

Allen Downey's "A parallel workload model and its implications for
processor allocation" is the other classic statistical model of
supercomputer workloads; Lublin & Feitelson [17] compare against it.
Having a second, structurally different generator lets the benchmark
harness check that the paper's conclusions are not artifacts of the
Lublin model (``benchmarks/bench_study_model_sensitivity.py``).

Model structure (as published):

- *cumulative speedup-adjusted lifetime* ``L`` is log-uniform over
  ``[ln(lo), ln(hi)]`` — Downey observed that total allocated
  CPU-seconds of jobs fit a uniform distribution in log space,
- *parallelism* ``n`` is log-uniform over ``[0, ln(N)]`` (jobs request
  anywhere from 1 processor to the full machine, with small requests
  more common),
- runtime is ``L / n`` — bigger partitions finish faster (Downey's
  model assumes near-linear speedup within a job's parallelism range),
- arrivals are Poisson (exponential inter-arrival gaps), the standard
  assumption of the era; the rate is this model's load knob.

Sizes are snapped to the machine granularity for BlueGene-style
machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List

import numpy as np

from repro.workload.generator import Workload
from repro.workload.job import Job, JobKind


@dataclass(frozen=True)
class DowneyConfig:
    """Parameters of the Downey model.

    Attributes:
        machine_size: Total processors ``N``.
        granularity: Allocation unit (sizes snap up to it).
        lifetime_lo / lifetime_hi: Bounds of the log-uniform total-work
            distribution, in processor-seconds.  Downey's SDSC fits
            span roughly seconds to a week of cumulative CPU time.
        mean_interarrival: Poisson arrival knob (seconds).
        max_parallelism_fraction: Cap on a job's size as a fraction of
            the machine (1.0 = full-machine jobs possible).
    """

    machine_size: int = 320
    granularity: int = 32
    lifetime_lo: float = 1.0e3
    lifetime_hi: float = 3.0e7
    mean_interarrival: float = 300.0
    max_parallelism_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.machine_size <= 0 or self.granularity <= 0:
            raise ValueError("machine geometry must be positive")
        if self.machine_size % self.granularity != 0:
            raise ValueError(
                f"machine {self.machine_size} not a multiple of granularity "
                f"{self.granularity}"
            )
        if not 0.0 < self.lifetime_lo < self.lifetime_hi:
            raise ValueError("need 0 < lifetime_lo < lifetime_hi")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not 0.0 < self.max_parallelism_fraction <= 1.0:
            raise ValueError("max_parallelism_fraction must be in (0, 1]")

    def with_mean_interarrival(self, value: float) -> "DowneyConfig":
        """Copy with a different load knob."""
        return replace(self, mean_interarrival=value)


class DowneyModel:
    """Sampler for the Downey workload model."""

    def __init__(self, config: DowneyConfig = DowneyConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def sample_parallelism(self, rng: np.random.Generator) -> int:
        """Log-uniform job size in [granularity, fraction * N]."""
        cfg = self.config
        cap = max(cfg.granularity, int(cfg.machine_size * cfg.max_parallelism_fraction))
        log_n = rng.uniform(0.0, math.log(cap))
        raw = math.exp(log_n)
        units = max(1, math.ceil(raw / cfg.granularity))
        return min(cap - cap % cfg.granularity or cfg.granularity, units * cfg.granularity)

    def sample_lifetime(self, rng: np.random.Generator) -> float:
        """Log-uniform cumulative work in processor-seconds."""
        cfg = self.config
        log_l = rng.uniform(math.log(cfg.lifetime_lo), math.log(cfg.lifetime_hi))
        return math.exp(log_l)

    def sample_gap(self, rng: np.random.Generator) -> float:
        """Poisson arrivals: exponential inter-arrival gap."""
        return float(rng.exponential(self.config.mean_interarrival))

    # ------------------------------------------------------------------
    def generate(self, n_jobs: int, rng: np.random.Generator) -> Workload:
        """Draw a complete batch workload of ``n_jobs`` jobs."""
        if n_jobs < 0:
            raise ValueError(f"n_jobs must be non-negative, got {n_jobs}")
        cfg = self.config
        jobs: List[Job] = []
        now = 0.0
        for job_id in range(1, n_jobs + 1):
            now += self.sample_gap(rng)
            num = self.sample_parallelism(rng)
            lifetime = self.sample_lifetime(rng)
            runtime = max(1.0, round(lifetime / num))
            jobs.append(
                Job(
                    job_id=job_id,
                    submit=round(now),
                    num=num,
                    estimate=runtime,
                    kind=JobKind.BATCH,
                )
            )
        return Workload(
            jobs=jobs,
            machine_size=cfg.machine_size,
            granularity=cfg.granularity,
            description=(
                f"Downey synthetic: N={n_jobs}, mean gap {cfg.mean_interarrival:g}s"
            ),
        )


def calibrate_downey(
    target_load: float,
    n_jobs: int,
    seed: int,
    config: DowneyConfig = DowneyConfig(),
    tolerance: float = 0.03,
    max_iterations: int = 40,
) -> Workload:
    """Bisect the Poisson rate until the offered load hits the target.

    Mirrors :func:`repro.experiments.calibrate.calibrate_beta_arr` for
    the Downey model (load decreases with ``mean_interarrival``).
    """
    if not 0 < target_load < math.inf:
        raise ValueError(f"target load must be finite and positive, got {target_load}")
    lo, hi = 1.0, 1.0e6  # mean inter-arrival bracket (seconds)
    best = None
    for _ in range(max_iterations):
        mid = math.sqrt(lo * hi)  # geometric: the knob spans decades
        workload = DowneyModel(config.with_mean_interarrival(mid)).generate(
            n_jobs, np.random.default_rng(seed)
        )
        load = workload.offered_load()
        if best is None or abs(load - target_load) < abs(best[0] - target_load):
            best = (load, workload)
        if abs(load - target_load) <= tolerance:
            return workload
        if load > target_load:
            lo = mid  # too much load -> slow arrivals down
        else:
            hi = mid
    assert best is not None
    return best[1]


__all__ = ["DowneyConfig", "DowneyModel", "calibrate_downey"]
