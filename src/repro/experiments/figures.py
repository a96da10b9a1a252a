"""One entry point per paper figure (§V).

Each ``figure_*`` function accepts a scale override (``n_jobs``,
sweep density) so the same definition powers both the full
reproduction (paper scale: 500 jobs per point) and fast benchmark/CI
runs.  Each returns a :class:`~repro.experiments.sweep.SweepResult`
whose series the benchmark harness prints and checks.

Paper parameters per figure:

====  =====================================================  =========
Fig.  Setup                                                  C_s
====  =====================================================  =========
 1    SDSC-like log, EASY vs LOS, load via arrival scaling    —
 5    batch, Load=0.9, P_S=0.5, C_s ∈ [1, 20]                 swept
 6    batch, Load=0.9, P_S=0.8, C_s ∈ [1, 20]                 swept
 7    batch, P_S=0.2, Load ∈ [0.5, 1]                         tuned
 8    batch, P_S ∈ {0.5, 0.8}, Load ∈ [0.5, 1]                tuned
 9    heterogeneous, P_D=0.5, P_S=0.2, Load ∈ [0.5, 1]        tuned
 10   heterogeneous, P_D=0.9, P_S=0.5, Load ∈ [0.5, 1]        tuned
 11   elastic (P_E=0.2, P_R=0.1): batch P_S=0.5 and           tuned
      heterogeneous P_S=P_D=0.5, Load ∈ [0.5, 1]
====  =====================================================  =========

``C_s`` "tuned": the paper empirically picks the optimal C_s per
``P_S`` before each load sweep; :func:`tuned_cs` reproduces that
rule of thumb (≈7 for P_S ≤ 0.5, ≈3 for small-job-heavy mixes),
matching the knees of Figures 5–6.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import (
    SweepResult,
    arrival_scale_sweep,
    cs_sweep,
    load_sweep,
)
from repro.workload.generator import GeneratorConfig
from repro.workload.sdsc import generate_sdsc_like
from repro.workload.twostage import TwoStageSizeConfig

#: Load sweep of §V (Figures 7-10): "increasing Load in the interval
#: [0.5, 1]".
PAPER_LOADS: Tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: C_s sweep of Figures 5-6.
PAPER_CS_VALUES: Tuple[int, ...] = tuple(range(1, 21))

BATCH_ALGORITHMS: Tuple[str, ...] = ("EASY", "LOS", "Delayed-LOS")
HETERO_ALGORITHMS: Tuple[str, ...] = ("EASY-D", "LOS-D", "Hybrid-LOS")
ELASTIC_BATCH_ALGORITHMS: Tuple[str, ...] = ("EASY-E", "LOS-E", "Delayed-LOS-E")
ELASTIC_HETERO_ALGORITHMS: Tuple[str, ...] = ("EASY-DE", "LOS-DE", "Hybrid-LOS-E")


def tuned_cs(p_small: float) -> int:
    """Empirical optimal ``C_s`` per ``P_S`` (Figures 5–6 knees)."""
    return 3 if p_small >= 0.7 else 7


def _batch_config(
    p_small: float,
    n_jobs: int,
    loads: Sequence[float],
    seed: int,
    algorithms: Tuple[str, ...] = BATCH_ALGORITHMS,
    p_dedicated: float = 0.0,
    p_extend: float = 0.0,
    p_reduce: float = 0.0,
) -> ExperimentConfig:
    generator = GeneratorConfig(
        n_jobs=n_jobs,
        size=TwoStageSizeConfig(p_small=p_small),
        p_dedicated=p_dedicated,
        p_extend=p_extend,
        p_reduce=p_reduce,
    )
    return ExperimentConfig(
        generator=generator,
        algorithms=algorithms,
        max_skip_count=tuned_cs(p_small),
        loads=tuple(loads),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Figure 1 — validation of LOS > EASY on an SDSC-like log
# ----------------------------------------------------------------------
def figure1(
    n_jobs: int = 500,
    scale_factors: Sequence[float] = (1.6, 1.4, 1.25, 1.1, 1.0),
    seed: int = 1,
) -> SweepResult:
    """EASY vs LOS on the SDSC-like trace, load via arrival scaling."""
    rng = np.random.default_rng(seed)
    base = generate_sdsc_like(n_jobs, rng)
    return arrival_scale_sweep(base, ("EASY", "LOS"), scale_factors)


# ----------------------------------------------------------------------
# Figures 5 and 6 — C_s sweeps
# ----------------------------------------------------------------------
def figure5(
    n_jobs: int = 500,
    cs_values: Sequence[int] = PAPER_CS_VALUES,
    load: float = 0.9,
    seed: int = 5,
) -> SweepResult:
    """Metrics vs C_s at Load=0.9, P_S=0.5."""
    config = _batch_config(0.5, n_jobs, PAPER_LOADS, seed)
    return cs_sweep(config, cs_values, target_load=load)


def figure6(
    n_jobs: int = 500,
    cs_values: Sequence[int] = PAPER_CS_VALUES,
    load: float = 0.9,
    seed: int = 6,
) -> SweepResult:
    """Metrics vs C_s at Load=0.9, P_S=0.8 (small-job-heavy)."""
    config = _batch_config(0.8, n_jobs, PAPER_LOADS, seed)
    return cs_sweep(config, cs_values, target_load=load)


# ----------------------------------------------------------------------
# Figures 7 and 8 — batch load sweeps
# ----------------------------------------------------------------------
def figure7(
    n_jobs: int = 500,
    loads: Sequence[float] = PAPER_LOADS,
    seed: int = 7,
) -> SweepResult:
    """Metrics vs Load at P_S=0.2 (large-job-heavy: LOS loses to EASY)."""
    return load_sweep(_batch_config(0.2, n_jobs, loads, seed))


def figure8(
    n_jobs: int = 500,
    loads: Sequence[float] = PAPER_LOADS,
    seed: int = 8,
) -> Dict[str, SweepResult]:
    """Waiting time vs Load for P_S=0.5 and P_S=0.8."""
    return {
        "P_S=0.5": load_sweep(_batch_config(0.5, n_jobs, loads, seed)),
        "P_S=0.8": load_sweep(_batch_config(0.8, n_jobs, loads, seed + 100)),
    }


# ----------------------------------------------------------------------
# Figures 9 and 10 — heterogeneous load sweeps
# ----------------------------------------------------------------------
def figure9(
    n_jobs: int = 500,
    loads: Sequence[float] = PAPER_LOADS,
    seed: int = 9,
) -> SweepResult:
    """Heterogeneous metrics vs Load at P_D=0.5, P_S=0.2."""
    config = _batch_config(
        0.2, n_jobs, loads, seed, algorithms=HETERO_ALGORITHMS, p_dedicated=0.5
    )
    return load_sweep(config)


def figure10(
    n_jobs: int = 500,
    loads: Sequence[float] = PAPER_LOADS,
    seed: int = 10,
) -> SweepResult:
    """Heterogeneous metrics vs Load at P_D=0.9, P_S=0.5."""
    config = _batch_config(
        0.5, n_jobs, loads, seed, algorithms=HETERO_ALGORITHMS, p_dedicated=0.9
    )
    return load_sweep(config)


# ----------------------------------------------------------------------
# Figure 11 — elastic workloads (ECCs)
# ----------------------------------------------------------------------
def figure11(
    n_jobs: int = 500,
    loads: Sequence[float] = PAPER_LOADS,
    seed: int = 11,
    p_extend: float = 0.2,
    p_reduce: float = 0.1,
) -> Dict[str, SweepResult]:
    """Elastic batch (P_S=0.5) and heterogeneous (P_S=P_D=0.5) sweeps."""
    batch = _batch_config(
        0.5,
        n_jobs,
        loads,
        seed,
        algorithms=ELASTIC_BATCH_ALGORITHMS,
        p_extend=p_extend,
        p_reduce=p_reduce,
    )
    hetero = _batch_config(
        0.5,
        n_jobs,
        loads,
        seed + 100,
        algorithms=ELASTIC_HETERO_ALGORITHMS,
        p_dedicated=0.5,
        p_extend=p_extend,
        p_reduce=p_reduce,
    )
    return {"batch": load_sweep(batch), "heterogeneous": load_sweep(hetero)}


__all__ = [
    "BATCH_ALGORITHMS",
    "ELASTIC_BATCH_ALGORITHMS",
    "ELASTIC_HETERO_ALGORITHMS",
    "HETERO_ALGORITHMS",
    "PAPER_CS_VALUES",
    "PAPER_LOADS",
    "figure1",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "tuned_cs",
]
