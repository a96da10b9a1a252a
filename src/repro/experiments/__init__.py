"""Experiment harness: runner, sweeps, calibration, figures, tables.

- :mod:`repro.experiments.runner` — event-driven simulation of one
  (workload, scheduler) pair, producing :class:`RunMetrics`,
- :mod:`repro.experiments.parallel` — fans independent runs out over
  worker processes (``REPRO_JOBS``), deterministic serial fallback;
  the one fan-out layer every sweep, grid and figure goes through,
- :mod:`repro.experiments.cache` — content-addressed on-disk cache of
  run metrics (``REPRO_CACHE=1``), so re-runs only simulate the delta,
- :mod:`repro.experiments.calibrate` — finds the ``β_arr`` that hits a
  target offered load (the paper's load knob),
- :mod:`repro.experiments.sweep` — seeded parameter sweeps across
  algorithms,
- :mod:`repro.experiments.figures` — one entry point per paper figure,
- :mod:`repro.experiments.tables` — Tables IV–VII max-% improvements,
- :mod:`repro.experiments.ascii_plot` — terminal line plots for the
  benchmark harness output.
"""

from repro.experiments.cache import RunCache, run_key, workload_digest
from repro.experiments.calibrate import CalibratedWorkload, calibrate_beta_arr
from repro.experiments.config import ExperimentConfig
from repro.experiments.fidelity import FidelityScore, score_fidelity
from repro.experiments.grid import GridResult, GridSpec, run_grid
from repro.experiments.parallel import RunSpec, execute_runs, resolve_jobs
from repro.experiments.runner import SimulationRunner, simulate
from repro.experiments.sweep import SweepResult, run_algorithms

__all__ = [
    "CalibratedWorkload",
    "ExperimentConfig",
    "FidelityScore",
    "GridResult",
    "GridSpec",
    "RunCache",
    "RunSpec",
    "SimulationRunner",
    "SweepResult",
    "calibrate_beta_arr",
    "execute_runs",
    "resolve_jobs",
    "run_algorithms",
    "run_grid",
    "run_key",
    "score_fidelity",
    "simulate",
    "workload_digest",
]
