"""Load calibration: find the β_arr hitting a target offered load.

The paper varies Load in [0.5, 1] by varying ``β_arr`` in
[0.4101, 0.6101] (Table II).  Offered load is monotonically
*decreasing* in ``β_arr`` (larger β → longer inter-arrival gaps), so a
bisection on the generated workload's measured load converges quickly.
Calibration is per (generator config, seed): each plotted point in §V
is a single seeded run whose measured load is the x-coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, Workload


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one calibration."""

    beta_arr: float
    achieved_load: float
    workload: Workload


def _measured_load(config: GeneratorConfig, beta_arr: float, seed: int) -> Tuple[float, Workload]:
    generator = CWFWorkloadGenerator(config.with_beta_arr(beta_arr))
    workload = generator.generate(np.random.default_rng(seed))
    return workload.offered_load(), workload


def calibrate_beta_arr(
    config: GeneratorConfig,
    target_load: float,
    seed: int,
    *,
    low: float = 0.25,
    high: float = 1.2,
    tolerance: float = 0.02,
    max_iterations: int = 40,
) -> CalibrationResult:
    """Bisect ``β_arr`` until the generated workload's load ≈ target.

    Args:
        config: Generator configuration (its ``β_arr`` is overridden).
        target_load: Desired offered load (e.g. 0.9).
        seed: Workload seed — the same seed is used at every probe so
            the search is deterministic and the returned workload is
            exactly the one whose load was measured.
        low / high: β_arr bracket.  Load decreases with β_arr, so
            ``low`` yields the highest load.
        tolerance: Acceptable |achieved − target|.
        max_iterations: Bisection budget.

    Returns:
        The calibrated β_arr, the achieved load, and the workload.

    Raises:
        ValueError: when the target is not finite and positive, or
            lies outside the bracket's achievable range.
    """
    if not 0 < target_load < math.inf:
        raise ValueError(f"target load must be finite and positive, got {target_load}")

    load_at_low, wl_low = _measured_load(config, low, seed)
    if target_load >= load_at_low:
        if abs(load_at_low - target_load) <= tolerance:
            return CalibrationResult(low, load_at_low, wl_low)
        raise ValueError(
            f"target load {target_load:.3f} exceeds the achievable maximum "
            f"{load_at_low:.3f} at beta_arr={low}; widen the bracket"
        )
    load_at_high, wl_high = _measured_load(config, high, seed)
    if target_load <= load_at_high:
        if abs(load_at_high - target_load) <= tolerance:
            return CalibrationResult(high, load_at_high, wl_high)
        raise ValueError(
            f"target load {target_load:.3f} is below the achievable minimum "
            f"{load_at_high:.3f} at beta_arr={high}; widen the bracket"
        )

    best = CalibrationResult(low, load_at_low, wl_low)
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        load, workload = _measured_load(config, mid, seed)
        if abs(load - target_load) < abs(best.achieved_load - target_load):
            best = CalibrationResult(mid, load, workload)
        if abs(load - target_load) <= tolerance:
            return CalibrationResult(mid, load, workload)
        if load > target_load:
            low = mid  # too much load -> slow arrivals down
        else:
            high = mid
    return best


__all__ = ["CalibrationResult", "calibrate_beta_arr"]
