"""The Lublin–Feitelson analytical workload model [17].

This is the model behind both the paper's synthetic workloads and the
SDSC-like validation trace of Figure 1.  It has three coupled parts:

Size (degree of parallelism)
    A job is serial with probability ``serial_prob``; parallel sizes
    are ``2**u`` with ``u`` drawn from a two-stage uniform on
    ``[ulow, umed, uhi]`` and rounded to an integer power of two with
    probability ``pow2_prob``.

Runtime
    ``2**x`` seconds with ``x`` drawn from a hyper-Gamma whose first-
    component probability is linear in the job size:
    ``p = pa * size + pb`` (clipped to [0, 1]).  Large jobs therefore
    skew towards the second, long-runtime component — the paper's
    "runtimes of jobs are correlated with their size".

Arrivals
    Inter-arrival gaps are ``2**g`` seconds with
    ``g ~ Gamma(alpha_arr, beta_arr)``; ``beta_arr`` is the load knob
    the paper sweeps (Table II).  A daily cycle modulates the gaps:
    during rush hours gaps shrink by the Arrive-Rush-to-All-Ratio
    (ARAR).  The count Gamma(alpha_num, beta_num) — "the number of
    jobs that arrive in each interval" — is available as an optional
    hard per-hour admission quota (``quota_enabled``) for burstiness
    ablations; it is off by default because its mean (~15 jobs/hour)
    sits below the rate the paper's Load = 1 points require, so it
    cannot have been a hard cap in the original experiments.  This
    reproduces the day-cycled arrival structure of real logs without
    copying the (unavailable) original C implementation line-by-line;
    DESIGN.md §2 records the interpretation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.workload.distributions import HyperGamma, gamma, two_stage_uniform

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class LublinConfig:
    """Parameters of the Lublin–Feitelson model.

    Defaults follow the paper's Tables I–II for runtime and arrival
    parameters and the published model defaults for the size part.
    """

    max_nodes: int = 320

    # --- size model ---------------------------------------------------
    serial_prob: float = 0.244
    pow2_prob: float = 0.576
    ulow: float = 0.8  # log2 of smallest parallel size
    umed_offset: float = 2.5  # umed = uhi - umed_offset
    uprob: float = 0.86

    # --- runtime model (Table I) ---------------------------------------
    alpha1: float = 4.2
    beta1: float = 0.94
    alpha2: float = 312.0
    beta2: float = 0.03
    pa: float = -0.0054
    pb: float = 0.78
    min_runtime: float = 1.0
    max_runtime: float = 86400.0  # clamp pathological tail samples (1 day)

    # --- arrival model (Table II) ---------------------------------------
    alpha_arr: float = 13.2303
    beta_arr: float = 0.5101  # midpoint of the paper's sweep range
    alpha_num: float = 15.1737
    beta_num: float = 0.9631
    arar: float = 1.0225
    rush_start_hour: int = 8
    rush_end_hour: int = 18
    #: Hard per-hour admission cap drawn from Gamma(alpha_num,
    #: beta_num).  Off by default: the cap's mean (~15 jobs/hour) is
    #: *below* the arrival rate the paper's Load = 1 points require
    #: (~23 jobs/hour on the 320-proc machine), so the count Gamma
    #: cannot be a hard cap in the paper's experiments — it shapes the
    #: daily cycle instead (via ARAR).  Enable for burstiness ablations.
    quota_enabled: bool = False

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if not 0.0 <= self.serial_prob <= 1.0:
            raise ValueError("serial_prob must be a probability")
        if not 0.0 <= self.pow2_prob <= 1.0:
            raise ValueError("pow2_prob must be a probability")
        if self.beta_arr <= 0:
            raise ValueError("beta_arr must be positive")
        if not 0 <= self.rush_start_hour < self.rush_end_hour <= 24:
            raise ValueError("rush hours must satisfy 0 <= start < end <= 24")

    @property
    def uhi(self) -> float:
        """Upper log2-size bound: log2 of the machine size."""
        return math.log2(self.max_nodes)

    @property
    def umed(self) -> float:
        """Breakpoint of the two-stage uniform size distribution."""
        return max(self.ulow, self.uhi - self.umed_offset)

    def with_beta_arr(self, beta_arr: float) -> "LublinConfig":
        """Copy with a different load knob (used by the calibrator)."""
        return replace(self, beta_arr=beta_arr)


@dataclass
class LublinSample:
    """One raw model draw: (arrival time, size, runtime)."""

    arrival: float
    size: int
    runtime: float


class LublinModel:
    """Sampler for the Lublin–Feitelson model.

    All draws flow from the supplied generator; two models built with
    equal configs and seeds produce identical traces.
    """

    def __init__(self, config: LublinConfig = LublinConfig()) -> None:
        self.config = config
        self._runtime_mixture = HyperGamma(
            config.alpha1, config.beta1, config.alpha2, config.beta2
        )

    # ------------------------------------------------------------------
    # Component samplers
    # ------------------------------------------------------------------
    def sample_size(self, rng: np.random.Generator) -> int:
        """Draw a job size in processors (degree of parallelism)."""
        cfg = self.config
        if cfg.max_nodes == 1 or rng.random() < cfg.serial_prob:
            return 1
        u = two_stage_uniform(cfg.ulow, cfg.umed, cfg.uhi, cfg.uprob, rng)
        if rng.random() < cfg.pow2_prob:
            size = 2 ** int(round(u))
        else:
            size = int(round(2.0**u))
        return max(1, min(cfg.max_nodes, size))

    def first_component_prob(self, size: int) -> float:
        """Mixing probability ``p = pa*size + pb`` clipped to [0, 1]."""
        cfg = self.config
        return min(1.0, max(0.0, cfg.pa * size + cfg.pb))

    def sample_runtime(self, size: int, rng: np.random.Generator) -> float:
        """Draw a runtime (seconds) correlated with ``size``."""
        cfg = self.config
        x = self._runtime_mixture.sample(self.first_component_prob(size), rng)
        runtime = 2.0**x
        return float(min(cfg.max_runtime, max(cfg.min_runtime, runtime)))

    # ------------------------------------------------------------------
    # Arrival process
    # ------------------------------------------------------------------
    def _is_rush_hour(self, time: float) -> bool:
        hour = (time / SECONDS_PER_HOUR) % 24.0
        return self.config.rush_start_hour <= hour < self.config.rush_end_hour

    def _interval_quota(self, rng: np.random.Generator) -> int:
        """Max arrivals admitted into one 1-hour interval."""
        n = gamma(self.config.alpha_num, self.config.beta_num, rng)
        return max(1, int(round(n)))

    def sample_gap(self, time: float, rng: np.random.Generator) -> float:
        """Inter-arrival gap in seconds at simulation ``time``.

        Sampled as ``2 ** (beta_arr * Gamma(alpha_arr, 1))`` — by the
        Gamma scaling property this is exactly ``2 ** Gamma(alpha_arr,
        beta_arr)``, but the standard-Gamma draw is independent of
        ``beta_arr``, so with a fixed seed the load knob *stretches* a
        fixed arrival pattern monotonically.  The load calibrator's
        bisection relies on this.
        """
        return self._stretch_gap(time, self._standard_gap(rng))

    def _standard_gap(self, rng: np.random.Generator) -> float:
        """The β-free part of a gap: one ``Gamma(alpha_arr, 1)`` draw."""
        return gamma(self.config.alpha_arr, 1.0, rng)

    def _stretch_gap(self, time: float, draw: float) -> float:
        """A gap from its standard-Gamma ``draw`` under this β_arr."""
        cfg = self.config
        gap = 2.0 ** (cfg.beta_arr * draw)
        # ARAR: the rush/overall arrival-rate ratio.  Rush hours see
        # proportionally shorter gaps, off hours longer ones.
        if self._is_rush_hour(time):
            gap /= cfg.arar
        else:
            gap *= cfg.arar
        return float(max(1.0, gap))

    def arrival_draws(
        self, count: int, rng: np.random.Generator
    ) -> Tuple[Iterator[float], Iterator[int]]:
        """The β-free draws behind ``count`` arrivals, both lazy.

        Returns the ``count`` standard-Gamma gap draws and the endless
        stream of interval quotas, from independent substreams of
        ``rng``: the gap stream is stretched by ``beta_arr`` while the
        quota stream is untouched by it, keeping the whole arrival
        pattern smooth in the load knob.  :meth:`arrivals_from` turns
        them into arrival times under this model's ``beta_arr``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        gap_rng, quota_rng = rng.spawn(2)
        standard_gap, interval_quota = self._standard_gap, self._interval_quota
        gaps = (standard_gap(gap_rng) for _ in range(count))
        quotas = (interval_quota(quota_rng) for _ in itertools.repeat(None))
        return gaps, quotas

    def arrivals_from(self, gaps: Iterable[float], quotas: Iterator[int]) -> Iterator[float]:
        """The arrival recurrence over pre-drawn gaps and quotas.

        One arrival per standard-Gamma gap draw, stretched by this
        model's ``beta_arr`` and ARAR and floored at one second.  With
        ``quota_enabled``, at most one interval quota of jobs lands
        inside each 1-hour window; once the quota is exhausted the
        clock jumps to the next window.  ``quotas`` is read lazily,
        one value per window entered (its first value up front).
        """
        stretch_gap = self._stretch_gap
        quota_enabled = self.config.quota_enabled
        now = 0.0
        interval_index = 0
        quota = next(quotas)
        admitted = 0
        for draw in gaps:
            now += stretch_gap(now, draw)
            if quota_enabled:
                idx = int(now // SECONDS_PER_HOUR)
                if idx > interval_index:
                    interval_index = idx
                    quota = next(quotas)
                    admitted = 0
                if admitted >= quota:
                    # Quota exhausted: spill to the next hour's start.
                    now = (interval_index + 1) * SECONDS_PER_HOUR
                    interval_index += 1
                    quota = next(quotas)
                    admitted = 0
            admitted += 1
            yield now

    def iter_arrivals(self, count: int, rng: np.random.Generator) -> Iterator[float]:
        """Yield ``count`` non-decreasing arrival times from t=0, one at a time.

        :meth:`arrivals_from` over the lazy :meth:`arrival_draws`, so
        each gap is drawn only when its arrival is pulled.  The load
        calibrator materialises the same draws once and reruns only
        :meth:`arrivals_from` at each probed ``beta_arr``
        (:class:`~repro.workload.generator.LoadProbe`).
        """
        yield from self.arrivals_from(*self.arrival_draws(count, rng))

    def sample_arrivals(self, count: int, rng: np.random.Generator) -> List[float]:
        """All ``count`` arrivals of :meth:`iter_arrivals` as a list."""
        return list(self.iter_arrivals(count, rng))

    # ------------------------------------------------------------------
    # Full trace
    # ------------------------------------------------------------------
    def sample(self, count: int, rng: np.random.Generator) -> List[LublinSample]:
        """Draw a complete raw trace of ``count`` jobs."""
        arrivals = self.sample_arrivals(count, rng)
        out = []
        for arrival in arrivals:
            size = self.sample_size(rng)
            runtime = self.sample_runtime(size, rng)
            out.append(LublinSample(arrival=arrival, size=size, runtime=runtime))
        return out


__all__ = ["LublinConfig", "LublinModel", "LublinSample", "SECONDS_PER_HOUR"]
