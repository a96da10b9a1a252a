"""Parameter sweeps: run several algorithms over calibrated workloads.

Every sweep is a spec builder plus a reducer: it emits one
:class:`~repro.experiments.parallel.RunSpec` per (sweep point ×
algorithm), point-major, runs them as one
:func:`~repro.experiments.parallel.execute_runs` batch, and folds the
results into a :class:`SweepResult`.  So independent simulations fan
out over worker processes and previously simulated runs come back from
the run cache.  Results are identical to a serial loop by construction
— specs are expanded in deterministic order and collected by index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments.cache import RunCache
from repro.experiments.calibrate import CalibratedWorkload
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec, execute_runs
from repro.metrics.records import RunMetrics
from repro.obs.progress import ProgressEvent
from repro.workload.generator import Workload


@dataclass
class SweepResult:
    """All runs of one sweep, aligned by sweep point.

    Attributes:
        sweep_label: Name of the swept variable.
        sweep_values: Realized x-axis values (e.g. achieved loads).
        series: algorithm -> per-point :class:`RunMetrics`.
    """

    sweep_label: str
    sweep_values: List[float]
    series: Dict[str, List[RunMetrics]] = field(default_factory=dict)

    def metric_series(self, algorithm: str, metric: str) -> List[float]:
        """One algorithm's values of ``metric`` across the sweep."""
        return [getattr(run, metric) for run in self.series[algorithm]]

    def rows(self) -> Dict[str, List[Dict[str, float]]]:
        """algorithm -> list of flat metric dicts (report formatting)."""
        return {
            name: [run.as_row() for run in runs] for name, runs in self.series.items()
        }


def run_algorithms(
    workload: Workload,
    algorithms: Sequence[str],
    *,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    **knobs: object,
) -> Dict[str, RunMetrics]:
    """Run every algorithm on the *same* workload instance.

    Each run gets fresh job copies (the workload is immutable input),
    so the comparison is paired — identical arrivals, sizes, runtimes
    and ECCs for every policy, as in the paper's methodology; under
    ``faults`` every policy also faces the *same* seeded fault model.
    Runs are dispatched through the parallel executor; ``jobs=1`` (or
    ``REPRO_JOBS=1``) forces the deterministic serial path, which
    produces identical metrics.  ``progress`` receives a
    :class:`~repro.obs.progress.ProgressEvent` per resolved run.

    ``knobs`` are :class:`~repro.experiments.parallel.RunSpec` fields,
    shared by every run, with two per-run forms:

    - a mapping is read per algorithm, and an algorithm absent from it
      gets the field's default — so ``trace_out={"EASY": "easy.jsonl"}``
      traces the EASY run only (docs/observability.md);
    - ``checkpoint_dir`` is a root holding one subdirectory per
      algorithm, so an interrupted run resumes mid-simulation on the
      next invocation (docs/resilience.md); an enabled ``cache``
      already stores each result as it lands, so a killed sweep re-runs
      only the remainder.
    """
    specs = []
    for name in algorithms:
        spec = {
            key: value[name] if isinstance(value, Mapping) else value
            for key, value in knobs.items()
            if not isinstance(value, Mapping) or name in value
        }
        if spec.get("checkpoint_dir") is not None:
            spec["checkpoint_dir"] = os.path.join(spec["checkpoint_dir"], name)
        specs.append(RunSpec(workload, name, **spec))
    metrics = execute_runs(specs, jobs=jobs, cache=cache, progress=progress)
    return dict(zip(algorithms, metrics))


def _by_algorithm(
    sweep_label: str,
    sweep_values: Sequence[float],
    specs: Sequence[RunSpec],
    metrics: Sequence[RunMetrics],
) -> SweepResult:
    """Fold one point-major batch into per-algorithm series."""
    result = SweepResult(sweep_label=sweep_label, sweep_values=list(sweep_values))
    for spec, run in zip(specs, metrics):
        result.series.setdefault(spec.algorithm, []).append(run)
    return result


def _achieved_loads(metrics: Sequence[RunMetrics], per_point: int) -> List[float]:
    """Each point's realized Load, read off its first run."""
    return [round(run.offered_load, 4) for run in metrics[::per_point]]


def load_sweep(
    config: ExperimentConfig,
    *,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> SweepResult:
    """Figures 7–10 style sweep: metrics vs offered load.

    Point ``i`` is the workload calibrated to ``config.loads[i]`` with
    seed ``config.seed + i``, named by recipe: the worker running a
    point's specs calibrates it, and every algorithm sees the same
    workload.  The x-value is the achieved load (``RunMetrics.offered_load``
    equals the calibration's bit for bit).  ``progress`` reports per run.
    """
    specs = [
        RunSpec(
            workload=CalibratedWorkload(config.generator, target, config.seed + index),
            algorithm=name,
            max_skip_count=config.max_skip_count,
            lookahead=config.lookahead,
            max_eccs_per_job=config.max_eccs_per_job,
        )
        for index, target in enumerate(config.loads)
        for name in config.algorithms
    ]
    metrics = execute_runs(specs, jobs=jobs, progress=progress)
    loads = _achieved_loads(metrics, len(config.algorithms))
    return _by_algorithm("Load", loads, specs, metrics)


def cs_sweep(
    config: ExperimentConfig,
    cs_values: Sequence[int],
    target_load: float,
    *,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> SweepResult:
    """Figures 5–6 style sweep: metrics vs the ``C_s`` threshold.

    One workload, calibrated to ``target_load``, is reused across all
    ``C_s`` values (only Delayed-LOS reacts to ``C_s``; EASY/LOS
    provide flat reference lines, as in the figures).  The whole
    (C_s × algorithm) grid is dispatched as one batch.
    """
    workload = CalibratedWorkload(config.generator, target_load, config.seed)
    specs = [
        RunSpec(
            workload=workload,
            algorithm=name,
            max_skip_count=cs,
            lookahead=config.lookahead,
            max_eccs_per_job=config.max_eccs_per_job,
        )
        for cs in cs_values
        for name in config.algorithms
    ]
    metrics = execute_runs(specs, jobs=jobs, progress=progress)
    return _by_algorithm("C_s", [float(v) for v in cs_values], specs, metrics)


def arrival_scale_sweep(
    base_workload: Workload,
    algorithms: Sequence[str],
    scale_factors: Sequence[float],
    *,
    max_skip_count: int = 7,
    lookahead: Optional[int] = 50,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> SweepResult:
    """Figure 1 style sweep: load varied by scaling arrival times.

    This is the methodology of [7] §4.1 that the paper replicates for
    validation: multiply every arrival time by a constant factor
    (> 1 lowers load) and re-run.  Scaled workloads are derived up
    front (cheap) and carried concretely, then all (factor × algorithm)
    runs go out as one batch.
    """
    specs = [
        RunSpec(
            workload=workload,
            algorithm=name,
            max_skip_count=max_skip_count,
            lookahead=lookahead,
        )
        for workload in (base_workload.scale_arrivals(f) for f in scale_factors)
        for name in algorithms
    ]
    metrics = execute_runs(specs, jobs=jobs, progress=progress)
    loads = _achieved_loads(metrics, len(algorithms))
    return _by_algorithm("Load", loads, specs, metrics)


__all__ = ["SweepResult", "arrival_scale_sweep", "cs_sweep", "load_sweep", "run_algorithms"]
