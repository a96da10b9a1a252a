"""Statistical building blocks of the Lublin–Feitelson workload model.

The model [17] composes three families:

- *two-stage uniform* — a mixture of two uniforms over adjacent
  intervals, used for (log2 of) job sizes,
- *Gamma* — used for arrival quantities, drawn with numpy's own
  ``Generator.gamma`` (:func:`log2_gamma_mean` is the mean of its
  power of two),
- *hyper-Gamma* — a two-component Gamma mixture whose mixing
  probability ``p`` is correlated with job size, used for (log2 of)
  runtimes.

All samplers take an explicit :class:`numpy.random.Generator`; nothing
in the package touches global random state, so every experiment is
reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def two_stage_uniform(
    low: float, med: float, high: float, prob: float, rng: np.random.Generator
) -> float:
    """Sample the two-stage uniform distribution of [17].

    With probability ``prob`` the value is uniform on ``[low, med]``,
    otherwise uniform on ``[med, high]``.

    Raises:
        ValueError: unless ``low <= med <= high`` and ``0<=prob<=1``.
    """
    if not (low <= med <= high):
        raise ValueError(f"need low <= med <= high, got {(low, med, high)}")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"prob must be in [0,1], got {prob}")
    if rng.random() < prob:
        return float(rng.uniform(low, med))
    return float(rng.uniform(med, high))


@dataclass(frozen=True)
class HyperGamma:
    """Two-component Gamma mixture (the paper's Table I family).

    With probability ``p`` a draw is Gamma(a1, b1), else Gamma(a2, b2),
    in the shape/scale ``(α, β)`` parameterization of the paper's
    Tables I–II.  The runtime model makes ``p`` a linear function of
    job size, so ``p`` is supplied per draw rather than stored; the
    draw itself is :meth:`repro.workload.lublin.LublinModel.runtime_sampler`.
    """

    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self) -> None:
        for name in ("a1", "b1", "a2", "b2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"hyper-gamma parameter {name} must be positive")

    def mean(self, p: float) -> float:
        """Mixture mean for a given ``p`` (used in analytic tests)."""
        p = min(1.0, max(0.0, p))
        return p * self.a1 * self.b1 + (1.0 - p) * self.a2 * self.b2


def log2_gamma_mean(shape: float, scale: float) -> float:
    """Exact mean of ``2**X`` for ``X ~ Gamma(shape, scale)``.

    This is the Gamma moment-generating function at ``t = ln 2``:
    ``(1 - scale*ln2)**(-shape)``, finite only when ``scale < 1/ln2``.
    Used by the load calibrator to seed its search and by tests to
    check the samplers against theory.
    """
    t = math.log(2.0)
    if scale * t >= 1.0:
        return math.inf
    return (1.0 - scale * t) ** (-shape)


__all__ = [
    "HyperGamma",
    "log2_gamma_mean",
    "two_stage_uniform",
]
