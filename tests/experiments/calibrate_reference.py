"""Full-generation bisection: the reference for the load calibrator.

The calibrator's probes rerun only the arrival recurrence over cached
β-free draws (:class:`repro.workload.generator.LoadProbe`).  This is
the search they replace: every probe generates the whole workload at
its ``beta_arr`` and measures ``offered_load()``.  Same bracket,
tolerance, ``best`` fallback and errors, so the two must agree on
``beta_arr``, the achieved load and the returned workload exactly.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, Workload


def measured_load(config: GeneratorConfig, beta_arr: float, seed: int) -> Tuple[float, Workload]:
    """Generate the ``(config, seed)`` workload at ``beta_arr``; its load."""
    generator = CWFWorkloadGenerator(config.with_beta_arr(beta_arr))
    workload = generator.generate(np.random.default_rng(seed))
    return workload.offered_load(), workload


def reference_calibrate(
    config: GeneratorConfig,
    target_load: float,
    seed: int,
    *,
    low: float = 0.25,
    high: float = 1.2,
    tolerance: float = 0.02,
    max_iterations: int = 40,
) -> Tuple[float, float, Workload]:
    """``(beta_arr, achieved_load, workload)`` by bisection over generations."""
    if not 0 < target_load < math.inf:
        raise ValueError(f"target load must be finite and positive, got {target_load}")
    load_at_low, wl_low = measured_load(config, low, seed)
    if target_load >= load_at_low:
        if abs(load_at_low - target_load) <= tolerance:
            return low, load_at_low, wl_low
        raise ValueError("achievable maximum")
    load_at_high, wl_high = measured_load(config, high, seed)
    if target_load <= load_at_high:
        if abs(load_at_high - target_load) <= tolerance:
            return high, load_at_high, wl_high
        raise ValueError("achievable minimum")
    best = (low, load_at_low, wl_low)
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        load, workload = measured_load(config, mid, seed)
        if abs(load - target_load) < abs(best[1] - target_load):
            best = (mid, load, workload)
        if abs(load - target_load) <= tolerance:
            return mid, load, workload
        if load > target_load:
            low = mid
        else:
            high = mid
    return best
