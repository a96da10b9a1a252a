"""Parameter-grid studies.

The paper explores (P_S, P_D, Load, C_s) one dimension at a time;
:func:`run_grid` sweeps full Cartesian grids of those knobs across
algorithms and returns flat rows ready for CSV/pandas — the tooling a
user adopting the library needs when mapping *their* workload regime.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Union

from repro.experiments.calibrate import CalibratedWorkload
from repro.experiments.parallel import RunSpec, execute_runs
from repro.obs.progress import ProgressEvent
from repro.workload.generator import GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig


@dataclass(frozen=True)
class GridSpec:
    """A Cartesian parameter grid.

    Attributes:
        p_small: ``P_S`` values.
        p_dedicated: ``P_D`` values (0 = batch-only; non-zero grids
            must use dedicated-capable algorithms).
        loads: target offered loads (calibrated per cell).
        cs_values: ``C_s`` values for the Delayed/Hybrid family.
        algorithms: registry names to run per cell.
        n_jobs: workload size per cell.
        seed: base seed; each cell gets a distinct derived seed.
        p_extend / p_reduce: ECC injection (with -E algorithms).
    """

    p_small: Sequence[float] = (0.2, 0.5, 0.8)
    p_dedicated: Sequence[float] = (0.0,)
    loads: Sequence[float] = (0.7, 0.9)
    cs_values: Sequence[int] = (7,)
    algorithms: Sequence[str] = ("EASY", "LOS", "Delayed-LOS")
    n_jobs: int = 200
    seed: int = 1000
    p_extend: float = 0.0
    p_reduce: float = 0.0

    def cells(self) -> List[tuple]:
        """All (p_small, p_dedicated, load, cs) combinations."""
        return list(
            itertools.product(self.p_small, self.p_dedicated, self.loads, self.cs_values)
        )


@dataclass
class GridResult:
    """Long-form grid outcome: one row per (cell, algorithm)."""

    FIELDS = (
        "p_small",
        "p_dedicated",
        "target_load",
        "achieved_load",
        "cs",
        "algorithm",
        "utilization",
        "mean_wait",
        "slowdown",
        "makespan",
        "n_jobs",
    )

    rows: List[Dict[str, float]] = field(default_factory=list)

    def best_algorithm(self, p_small: float, p_dedicated: float, load: float) -> str:
        """Lowest-mean-wait algorithm in a cell (first C_s value)."""
        candidates = [
            row
            for row in self.rows
            if row["p_small"] == p_small
            and row["p_dedicated"] == p_dedicated
            and row["target_load"] == load
        ]
        if not candidates:
            raise KeyError(f"no grid cell ({p_small}, {p_dedicated}, {load})")
        return min(candidates, key=lambda row: row["mean_wait"])["algorithm"]

    def to_csv(self, target: Union[str, Path, TextIO]) -> None:
        """Write the long-form rows as CSV."""
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8", newline="") as fh:
                self.to_csv(fh)
            return
        writer = csv.DictWriter(target, fieldnames=self.FIELDS)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)


def run_grid(
    spec: GridSpec,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    *,
    jobs: Optional[int] = None,
) -> GridResult:
    """Run every grid cell; returns the long-form result.

    Cell ``i`` is the workload calibrated with the derived seed
    ``spec.seed + i``, named by recipe, so every (cell × algorithm)
    run goes out in one batch and the grid is embarrassingly
    deterministic.  Rows come back in cell order regardless of
    completion order.  ``progress`` reports per run, as in
    :func:`~repro.experiments.parallel.execute_runs`.
    """
    cells = spec.cells()
    runs = [
        RunSpec(
            workload=CalibratedWorkload(
                GeneratorConfig(
                    n_jobs=spec.n_jobs,
                    size=TwoStageSizeConfig(p_small=p_small),
                    p_dedicated=p_dedicated,
                    p_extend=spec.p_extend,
                    p_reduce=spec.p_reduce,
                ),
                load,
                spec.seed + index,
            ),
            algorithm=name,
            max_skip_count=cs,
        )
        for index, (p_small, p_dedicated, load, cs) in enumerate(cells)
        for name in spec.algorithms
    ]
    metrics = execute_runs(runs, jobs=jobs, progress=progress)
    per_cell = len(spec.algorithms)
    result = GridResult()
    for position, (run, outcome) in enumerate(zip(runs, metrics)):
        p_small, p_dedicated, load, cs = cells[position // per_cell]
        result.rows.append({
            "p_small": p_small,
            "p_dedicated": p_dedicated,
            "target_load": load,
            "achieved_load": round(outcome.offered_load, 4),
            "cs": cs,
            "algorithm": run.algorithm,
            "utilization": round(outcome.utilization, 6),
            "mean_wait": round(outcome.mean_wait, 2),
            "slowdown": round(outcome.slowdown, 4),
            "makespan": round(outcome.makespan, 1),
            "n_jobs": outcome.n_jobs,
        })
    return result


__all__ = ["GridResult", "GridSpec", "run_grid"]
