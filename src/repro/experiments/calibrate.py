"""Load calibration: find the β_arr hitting a target offered load.

The paper varies Load in [0.5, 1] by varying ``β_arr`` in
[0.4101, 0.6101] (Table II).  Offered load is monotonically
*decreasing* in ``β_arr`` (larger β → longer inter-arrival gaps), so a
bisection on the generated workload's measured load converges quickly.
Calibration is per (generator config, seed): each plotted point in §V
is a single seeded run whose measured load is the x-coordinate.

Only the arrival times depend on ``β_arr``; sizes, runtimes, ECCs and
the standard-Gamma gap draws come from substreams it never touches.
So the β-free inputs are drawn once per calibration
(:meth:`~repro.workload.generator.CWFWorkloadGenerator.load_probe`)
and a probe reruns only the arrival recurrence and the Load formula,
O(n) float arithmetic instead of a full generation.  The returned
workload is the one :meth:`~repro.workload.generator.CWFWorkloadGenerator.generate`
draws at the chosen β — generated once — and its measured load must
equal the probe's bit for bit.

:class:`CalibratedWorkload` names such a workload by its recipe, so a
:class:`~repro.experiments.parallel.RunSpec` can carry a few hundred
bytes instead of the workload and the worker that runs it calibrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig, Workload


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one calibration."""

    beta_arr: float
    achieved_load: float
    workload: Workload


@dataclass(frozen=True)
class CalibratedWorkload:
    """The workload :func:`calibrate_beta_arr` returns, named by recipe.

    Resolving the recipe (``calibrate_beta_arr(config, target_load,
    seed).workload``) is deterministic, so every run naming the same
    recipe sees the same workload, in any process.
    """

    config: GeneratorConfig
    target_load: float
    seed: int


def _calibrated(
    config: GeneratorConfig, beta_arr: float, load: float, seed: int
) -> CalibrationResult:
    """Generate the workload at ``beta_arr`` and check it has the probed load."""
    generator = CWFWorkloadGenerator(config.with_beta_arr(beta_arr))
    workload = generator.generate(np.random.default_rng(seed))
    measured = workload.offered_load()
    if measured != load:
        raise RuntimeError(
            f"load probe disagrees with the generated workload at "
            f"beta_arr={beta_arr!r}: probed {load!r}, measured {measured!r}"
        )
    return CalibrationResult(beta_arr, load, workload)


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
        The calibrated β_arr, the achieved load, and the workload —
        generated once, at the calibrated β_arr, whatever the number
        of probes.

    Raises:
        ValueError: when the target is not finite and positive, or
            lies outside the bracket's achievable range.
        RuntimeError: when the generated workload's load differs from
            the probe's (a probe that no longer mirrors the generator).
    """
    if not 0 < target_load < math.inf:
        raise ValueError(f"target load must be finite and positive, got {target_load}")

    load_at = CWFWorkloadGenerator(config).load_probe(np.random.default_rng(seed)).load
    load_at_low = load_at(low)
    if target_load >= load_at_low:
        if abs(load_at_low - target_load) <= tolerance:
            return _calibrated(config, low, load_at_low, seed)
        raise ValueError(
            f"target load {target_load:.3f} exceeds the achievable maximum "
            f"{load_at_low:.3f} at beta_arr={low}; widen the bracket"
        )
    load_at_high = load_at(high)
    if target_load <= load_at_high:
        if abs(load_at_high - target_load) <= tolerance:
            return _calibrated(config, high, load_at_high, seed)
        raise ValueError(
            f"target load {target_load:.3f} is below the achievable minimum "
            f"{load_at_high:.3f} at beta_arr={high}; widen the bracket"
        )

    best_beta, best_load = low, load_at_low
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        load = load_at(mid)
        if abs(load - target_load) < abs(best_load - target_load):
            best_beta, best_load = mid, load
        if abs(load - target_load) <= tolerance:
            return _calibrated(config, mid, load, seed)
        if load > target_load:
            low = mid  # too much load -> slow arrivals down
        else:
            high = mid
    return _calibrated(config, best_beta, best_load, seed)


__all__ = ["CalibratedWorkload", "CalibrationResult", "calibrate_beta_arr"]
