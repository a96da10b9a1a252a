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

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.workload.distributions import HyperGamma, two_stage_uniform

SECONDS_PER_HOUR = 3600.0

#: Values drawn per numpy call on the arrival substreams.  Large enough
#: that the call overhead vanishes, small enough that a million-job
#: stream holds only one block of pending draws.
DRAW_BLOCK = 1024


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
        for name in ("alpha_arr", "beta_arr", "alpha_num", "beta_num"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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

    def runtime_sampler(self, rng: np.random.Generator) -> Callable[[int], float]:
        """A runtime draw bound to ``rng``: job size in, seconds out.

        ``2**x`` with ``x`` from the hyper-Gamma mixture whose
        first-component probability is :meth:`first_component_prob` of
        the size, clamped to ``[min_runtime, max_runtime]``.  The
        parameters and ``rng``'s methods are bound once, so a job's
        draw is two numpy calls and one mixing-probability call.
        """
        cfg = self.config
        lowest, highest = cfg.min_runtime, cfg.max_runtime
        mixture = self._runtime_mixture
        a1, b1, a2, b2 = mixture.a1, mixture.b1, mixture.a2, mixture.b2
        first_component_prob = self.first_component_prob
        random, gamma = rng.random, rng.gamma

        def draw(size: int) -> float:
            x = gamma(a1, b1) if random() < first_component_prob(size) else gamma(a2, b2)
            return float(min(highest, max(lowest, 2.0**x)))

        return draw

    # ------------------------------------------------------------------
    # Arrival process
    # ------------------------------------------------------------------
    def arrival_draws(
        self, count: int, rng: np.random.Generator
    ) -> Tuple[Iterator[float], Iterator[int]]:
        """The β-free draws behind ``count`` arrivals, both lazy.

        Returns the ``count`` standard-Gamma ``Gamma(alpha_arr, 1)`` gap
        draws and the endless stream of interval quotas, from
        independent substreams of ``rng``: the gap stream is stretched
        by ``beta_arr`` while the quota stream is untouched by it,
        keeping the whole arrival pattern smooth in the load knob.
        :meth:`arrivals_from` turns them into arrival times under this
        model's ``beta_arr``.

        Each stream is drawn :data:`DRAW_BLOCK` values per numpy call,
        the next block only once the consumer has used up the last, so
        a stream holds at most one block of pending values.  Each
        stream owns its spawned generator, and numpy fills a block from
        the same bits that successive scalar draws would read, so the
        values are those of one scalar draw per value.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        cfg = self.config
        gap_rng, quota_rng = rng.spawn(2)
        gaps = _block_draws(functools.partial(gap_rng.gamma, cfg.alpha_arr, 1.0), count)
        counts = _block_draws(functools.partial(quota_rng.gamma, cfg.alpha_num, cfg.beta_num))
        # A quota caps the arrivals admitted into one 1-hour window.
        quotas = (max(1, int(round(n))) for n in counts)
        return gaps, quotas

    def arrivals_from(self, gaps: Iterable[float], quotas: Iterator[int]) -> Iterator[float]:
        """The arrival recurrence over pre-drawn gaps and quotas.

        One arrival per standard-Gamma gap draw ``g``: the gap is
        ``2 ** (beta_arr * g)`` seconds, shortened by ARAR in rush
        hours and lengthened by it otherwise, and floored at one
        second.  By the Gamma scaling property ``beta_arr * g`` is a
        ``Gamma(alpha_arr, beta_arr)`` draw, but ``g`` is independent
        of ``beta_arr``, so with a fixed seed the load knob *stretches*
        a fixed arrival pattern monotonically; the load calibrator's
        bisection relies on this.  With ``quota_enabled``, at most one
        interval quota of jobs lands inside each 1-hour window; once
        the quota is exhausted the clock jumps to the next window.
        ``quotas`` is read lazily, one value per window entered (its
        first value up front).
        """
        cfg = self.config
        beta_arr, arar = cfg.beta_arr, cfg.arar
        rush_start, rush_end = cfg.rush_start_hour, cfg.rush_end_hour
        quota_enabled = cfg.quota_enabled
        now = 0.0
        interval_index = 0
        quota = next(quotas)
        admitted = 0
        for draw in gaps:
            gap = 2.0 ** (beta_arr * draw)
            # ARAR: the rush/overall arrival-rate ratio.  Rush hours see
            # proportionally shorter gaps, off hours longer ones.
            if rush_start <= (now / SECONDS_PER_HOUR) % 24.0 < rush_end:
                gap /= arar
            else:
                gap *= arar
            now += max(1.0, gap)
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
        the gaps are drawn a block at a time as the arrivals are
        pulled.  The load calibrator materialises the same draws once
        and reruns only :meth:`arrivals_from` at each probed
        ``beta_arr`` (:class:`~repro.workload.generator.LoadProbe`).
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
        sample_size, draw_runtime = self.sample_size, self.runtime_sampler(rng)
        out = []
        for arrival in arrivals:
            size = sample_size(rng)
            out.append(LublinSample(arrival=arrival, size=size, runtime=draw_runtime(size)))
        return out


def _block_draws(draw: Callable[..., np.ndarray], count: Optional[int] = None) -> Iterator[float]:
    """``count`` values of ``draw(size=n)`` (endless if ``None``), a block per call.

    A block is drawn only when the consumer has used up the one before.
    """
    if count is None:
        sizes: Iterable[int] = itertools.repeat(DRAW_BLOCK)
    else:
        full, rest = divmod(count, DRAW_BLOCK)
        sizes = itertools.chain(itertools.repeat(DRAW_BLOCK, full), (rest,) if rest else ())
    return itertools.chain.from_iterable(draw(size=size).tolist() for size in sizes)


__all__ = ["DRAW_BLOCK", "LublinConfig", "LublinModel", "LublinSample", "SECONDS_PER_HOUR"]
