"""Sweep, grid and replica outputs pinned against committed digests.

Every figure entry point, a grid with dedicated jobs and ECCs, and a
two-seed replication are hashed (SHA-256 over the x-values and
``rows()``) and compared with digests computed by the same
:func:`sweep_digests` on the commit before the flat-plan executor
(recipe specs in one ``execute_runs`` batch) replaced the nested
per-point fan-out.  Both worker counts must reproduce them.

Re-pin only on a deliberate change of sweep output, by running::

    PYTHONPATH=src python -m tests.experiments.test_sweep_equivalence
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Dict

import pytest

from repro.experiments import figures
from repro.experiments.grid import GridSpec, run_grid
from repro.experiments.parallel import ENV_JOBS, fork_available
from repro.experiments.replicate import replicate_sweep

N_JOBS = 60
LOADS = (0.6, 0.9)

PINNED: Dict[str, str] = {
    "figure1": (
        "f50a75fbfbbfddcfdc6c43c5c451f4574dff0cbeb0b4667da94f990e103c685d"
    ),
    "figure11/batch": (
        "3106a735ceaff637330d16807a27bd71f6ac1da519fe9f299faa866f3db3756f"
    ),
    "figure11/heterogeneous": (
        "01ca9a241e0937d660d7ba781786be8e87aee18042a89b9ce08b808e877f1ade"
    ),
    "figure5": (
        "b5d6f2b057cce4978222440bebf058f0b6887165f562fcbdd60380c77635aa3c"
    ),
    "figure7": (
        "7b6a3f9e776611071df72b0342c21cca7193e76782b9e36a5bdcdea88c21c7c1"
    ),
    "figure8/P_S=0.5": (
        "b1c04e37804ee3e76be502a33288c6c41777855080c620d198eb5c6ddf38d64d"
    ),
    "figure8/P_S=0.8": (
        "8213b756d945dcf2b229cd690a458d0cd982e15969b90ef6ed0052040de749fc"
    ),
    "figure9": (
        "a32d73779a5827fd1a89cc79ef03b874592677dcc30b78e4117973e399a9ff33"
    ),
    "grid": (
        "8e075bb42f73d2ba1bc0baf61504e406ae760b387738a25c3d5ad5d9fd0b05f7"
    ),
    "replicate": (
        "e0e370e2a8553ca32257d520af87eb709578781285ed00099a4703d60f650511"
    ),
}


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _sweep(result) -> object:
    return {"x": result.sweep_values, "rows": result.rows()}


def sweep_digests() -> Dict[str, str]:
    """Digest of every pinned sweep, grid and replica output."""
    out = {
        "figure1": _sweep(figures.figure1(n_jobs=N_JOBS, scale_factors=(1.4, 1.1, 1.0))),
        "figure5": _sweep(figures.figure5(n_jobs=N_JOBS, cs_values=(2, 7, 12))),
        "figure7": _sweep(figures.figure7(n_jobs=N_JOBS, loads=LOADS)),
        "figure9": _sweep(figures.figure9(n_jobs=N_JOBS, loads=LOADS)),
    }
    for name, result in figures.figure8(n_jobs=N_JOBS, loads=LOADS).items():
        out[f"figure8/{name}"] = _sweep(result)
    for name, result in figures.figure11(n_jobs=N_JOBS, loads=LOADS).items():
        out[f"figure11/{name}"] = _sweep(result)
    grid = run_grid(GridSpec(
        p_small=(0.5,), p_dedicated=(0.3,), loads=LOADS, cs_values=(3, 7),
        algorithms=("EASY-DE", "Hybrid-LOS-E"), n_jobs=N_JOBS,
        p_extend=0.2, p_reduce=0.1,
    ))
    out["grid"] = grid.rows
    replicated = replicate_sweep(
        lambda seed: figures.figure7(n_jobs=N_JOBS, loads=LOADS, seed=seed),
        seeds=[1, 2],
    )
    out["replicate"] = {
        "x": replicated.sweep_values,
        "replicas": [_sweep(replica) for replica in replicated.replicas],
    }
    return {name: _digest(payload) for name, payload in out.items()}


@pytest.mark.parametrize(
    "jobs",
    [
        "1",
        pytest.param("2", marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable"
        )),
    ],
)
def test_sweep_outputs_match_pinned_digests(jobs, monkeypatch):
    monkeypatch.setenv(ENV_JOBS, jobs)
    assert sweep_digests() == PINNED


if __name__ == "__main__":
    json.dump(sweep_digests(), sys.stdout, indent=4, sort_keys=True)
    print()
