"""The paper's two-stage-uniform job-size model for BlueGene/P (§IV-D).

Job sizes on the simulated BlueGene/P come in multiples of 32
processors.  The paper samples:

- *small* jobs (probability ``P_S``): ``32 * round(U[1, 3])`` — sizes
  32, 64 or 96 (round of a continuous uniform gives 64 twice the
  weight of the endpoints),
- *large* jobs (probability ``1 - P_S``): ``32 * round(U[4, 10])`` —
  sizes 128, 160, …, 320 (interior values twice the endpoint weight).

``P_S`` is the packing-properties knob swept throughout §V; this
deliberate deviation from the SDSC log's size distribution is the crux
of the paper's claim that LOS degrades when job sizes change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np


@dataclass(frozen=True)
class TwoStageSizeConfig:
    """Parameters of the two-stage uniform size model.

    Attributes:
        p_small: The paper's ``P_S`` — probability a job is small.
        granularity: Processor multiple (32 on BlueGene/P).
        small_range: Inclusive bounds of the *continuous* uniform whose
            rounded value scales ``granularity`` for small jobs.
        large_range: Same for large jobs.
    """

    p_small: float = 0.5
    granularity: int = 32
    small_range: Tuple[float, float] = (1.0, 3.0)
    large_range: Tuple[float, float] = (4.0, 10.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_small <= 1.0:
            raise ValueError(f"p_small must be a probability, got {self.p_small}")
        if self.granularity <= 0:
            raise ValueError(f"granularity must be positive, got {self.granularity}")
        for name, (lo, hi) in (
            ("small_range", self.small_range),
            ("large_range", self.large_range),
        ):
            if not (0 < lo <= hi):
                raise ValueError(f"{name} must satisfy 0 < lo <= hi, got {(lo, hi)}")

    def small_sizes(self) -> Tuple[int, ...]:
        """All sizes the small branch can produce, in processors."""
        lo, hi = self.small_range
        return tuple(
            self.granularity * k for k in range(round(lo), round(hi) + 1)
        )

    def large_sizes(self) -> Tuple[int, ...]:
        """All sizes the large branch can produce, in processors."""
        lo, hi = self.large_range
        return tuple(
            self.granularity * k for k in range(round(lo), round(hi) + 1)
        )

    def max_size(self) -> int:
        """Largest producible size (320 with defaults)."""
        return self.granularity * round(self.large_range[1])


class TwoStageSizeModel:
    """Sampler for the §IV-D size distribution."""

    def __init__(self, config: TwoStageSizeConfig = TwoStageSizeConfig()) -> None:
        self.config = config

    def sampler(self, rng: np.random.Generator) -> Callable[[], int]:
        """A size draw bound to ``rng``: each call returns one job size in processors.

        A job is small with probability ``P_S``; its size is
        ``granularity`` times the rounded uniform of its branch's range.
        ``lo + (hi - lo) * random()`` is numpy's own ``uniform(lo, hi)``
        formula, so the sizes are those of ``rng.uniform`` bit for bit,
        without its per-call argument handling.
        """
        cfg = self.config
        p_small, granularity = cfg.p_small, cfg.granularity
        small_lo, small_hi = cfg.small_range
        large_lo, large_hi = cfg.large_range
        small_span, large_span = small_hi - small_lo, large_hi - large_lo
        random = rng.random

        def draw() -> int:
            if random() < p_small:
                return granularity * round(small_lo + small_span * random())
            return granularity * round(large_lo + large_span * random())

        return draw

    def mean_size(self) -> float:
        """Exact expected size (used by load calibration and tests).

        The rounded uniform over ``[lo, hi]`` with integer endpoints
        puts weight 1/(2(hi-lo)) on each endpoint and 1/(hi-lo) on each
        interior integer; the mean is simply ``(lo + hi) / 2`` by
        symmetry.
        """
        cfg = self.config
        small_mean = sum(cfg.small_range) / 2.0 * cfg.granularity
        large_mean = sum(cfg.large_range) / 2.0 * cfg.granularity
        return cfg.p_small * small_mean + (1.0 - cfg.p_small) * large_mean


__all__ = ["TwoStageSizeConfig", "TwoStageSizeModel"]
