"""Experiment configuration shared by figures, tables and benches."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.workload.generator import GeneratorConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """One §V experiment: a workload family, algorithms and a sweep.

    Attributes:
        generator: Base workload generator configuration (``P_S``,
            ``P_D``, ``P_E``, ``P_R`` live inside).
        algorithms: Registry names to compare.
        max_skip_count: ``C_s`` for the Delayed/Hybrid entries.  The
            paper tunes it per ``P_S`` ("we first empirically obtain
            the optimal value of C_s for a given value of P_S").
        lookahead: DP window for the LOS family.
        loads: Target offered loads for a load sweep (Figures 7–10).
        seed: Base RNG seed; point ``i`` of a sweep uses ``seed + i``
            so points are independent draws, like the paper's
            one-run-per-point methodology.
        max_eccs_per_job: Optional ECC budget for elastic runs.
    """

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    algorithms: Tuple[str, ...] = ("EASY", "LOS", "Delayed-LOS")
    max_skip_count: int = 7
    lookahead: Optional[int] = 50
    loads: Tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    seed: int = 20120521  # IPPS 2012 conference date
    max_eccs_per_job: Optional[int] = None

    def with_loads(self, loads: Sequence[float]) -> "ExperimentConfig":
        """Copy with a different load sweep."""
        return replace(self, loads=tuple(loads))

    def scaled(self, n_jobs: int, loads: Optional[Sequence[float]] = None) -> "ExperimentConfig":
        """Copy at reduced scale (fast benchmark/CI runs)."""
        generator = replace(self.generator, n_jobs=n_jobs)
        out = replace(self, generator=generator)
        if loads is not None:
            out = out.with_loads(loads)
        return out


__all__ = ["ExperimentConfig"]
