"""Table III as an identity lattice.

The paper names its algorithms by layers: "-D" appends the dedicated
job queue and "-E" appends the ECC processor (Table III), and the
Malleable-* policies wrap a base in a resize layer
(docs/malleability.md).  Where a layer's input is absent, the layer
must do nothing.  Each pair below runs the same ~120-job input on two
seeds and must give the same trace body (every line after the header,
which names the policy) and the same ``RunMetrics.as_row()``:

- every -D policy vs its base on batch-only input with ET/RT commands,
  cancellations and pset/job faults with checkpoint credit, decision
  records included;
- every -E policy and every Malleable-* wrapper vs its base on rigid,
  command-free input, under faults with retries but no checkpoint
  credit (the credit rides the ECC processor, so there the -E layer
  acts; docs/paper_mapping.md);
- Malleable-Backfill, Malleable-Agreement and EASY-E on rigid input
  with commands and faults.

Malleable-* ``decision`` records are exempt: they explain shrinks that
EASY never considers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.registry import make_scheduler
from repro.experiments.calibrate import calibrate_beta_arr
from repro.experiments.runner import simulate
from repro.faults.model import FaultConfig, RetryPolicy
from repro.workload.generator import GeneratorConfig, Workload
from repro.workload.twostage import TwoStageSizeConfig

SEEDS = (3, 11)

FAULTS = FaultConfig(mtbf=40000.0, mttr=2000.0, seed=5, p_job_fail=0.1)

#: name -> (input carries ET/RT commands, simulate options)
SCENARIOS = {
    "commands": (True, {}),
    "commands-faults": (True, {
        "decisions": True,
        "faults": FAULTS,
        "retry": RetryPolicy(max_retries=2, backoff=300.0, checkpoint=True),
    }),
    "rigid": (False, {"decisions": True}),
    "rigid-faults": (False, {
        "faults": FAULTS,
        "retry": RetryPolicy(max_retries=2, backoff=300.0),
    }),
    "rigid-checkpoint": (False, {
        "faults": FAULTS,
        "retry": RetryPolicy(max_retries=2, backoff=300.0, checkpoint=True),
    }),
}

#: -D layer vs its base, on batch-only input.
D_PAIRS = [
    ("EASY-D", "EASY"),
    ("EASY-DE", "EASY-E"),
    ("LOS-D", "LOS"),
    ("LOS-DE", "LOS-E"),
    ("Hybrid-LOS", "Delayed-LOS"),
    ("Hybrid-LOS-E", "Delayed-LOS-E"),
]

#: -E layer or Malleable-* wrapper vs its base, on command-free input.
E_PAIRS = [
    ("EASY-E", "EASY"),
    ("Malleable-Backfill", "EASY"),
    ("Malleable-Agreement", "EASY"),
    ("LOS-E", "LOS"),
    ("Delayed-LOS-E", "Delayed-LOS"),
    ("ADAPTIVE-E", "ADAPTIVE"),
    ("Malleable-FCFS", "FCFS"),
]

#: The malleable EASY wrappers vs EASY-E, on input with commands.
M_PAIRS = [
    ("Malleable-Backfill", "EASY-E"),
    ("Malleable-Agreement", "EASY-E"),
]


def _workload(seed: int, commands: bool) -> Workload:
    config = GeneratorConfig(
        n_jobs=120,
        size=TwoStageSizeConfig(p_small=0.5),
        p_extend=0.3 if commands else 0.0,
        p_reduce=0.1 if commands else 0.0,
    )
    workload = calibrate_beta_arr(config, 0.9, seed=seed).workload
    # Two cancellations at submission and two 10 minutes after it.
    jobs = list(workload.jobs)
    for index in (3, 17):
        jobs[index] = replace(jobs[index], cancel_at=jobs[index].submit)
    for index in (8, 40):
        jobs[index] = replace(jobs[index], cancel_at=jobs[index].submit + 600.0)
    return replace(workload, jobs=jobs)


class _Runs:
    """Each (policy, scenario, seed) run once, shared by every pair."""

    def __init__(self, directory):
        self.directory = directory
        self.workloads = {}
        self.results = {}

    def get(self, name: str, scenario: str, seed: int):
        """(body digest, body digest without decisions, row, kinds)."""
        key = (name, scenario, seed)
        if key not in self.results:
            commands, options = SCENARIOS[scenario]
            if (seed, commands) not in self.workloads:
                self.workloads[seed, commands] = _workload(seed, commands)
            path = self.directory / "run.jsonl"
            metrics = simulate(
                self.workloads[seed, commands],
                make_scheduler(name),
                trace_out=path,
                **options,
            )
            lines = path.read_bytes().splitlines(keepends=True)[1:]
            kinds = [json.loads(line)["kind"] for line in lines]
            kept = [line for line, kind in zip(lines, kinds) if kind != "decision"]
            self.results[key] = (
                hashlib.sha256(b"".join(lines)).hexdigest(),
                hashlib.sha256(b"".join(kept)).hexdigest(),
                repr(metrics.as_row()),  # repr: NaN cells compare equal
                set(kinds),
            )
        return self.results[key]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return _Runs(tmp_path_factory.mktemp("lattice"))


def _assert_identical(runs, layered, base, scenario):
    exempt = layered.startswith("Malleable-") or base.startswith("Malleable-")
    for seed in SEEDS:
        a = runs.get(layered, scenario, seed)
        b = runs.get(base, scenario, seed)
        body = 1 if exempt else 0
        assert a[body] == b[body], f"{layered} vs {base}: {scenario} trace, seed {seed}"
        assert a[2] == b[2], f"{layered} vs {base}: {scenario} metrics, seed {seed}"


@pytest.mark.parametrize("scenario", ["commands", "commands-faults"])
@pytest.mark.parametrize("layered, base", D_PAIRS)
def test_dedicated_layer_is_idle_on_batch_input(runs, layered, base, scenario):
    _assert_identical(runs, layered, base, scenario)


@pytest.mark.parametrize("scenario", ["rigid", "rigid-faults"])
@pytest.mark.parametrize("layered, base", E_PAIRS)
def test_elastic_layer_is_idle_on_rigid_input(runs, layered, base, scenario):
    _assert_identical(runs, layered, base, scenario)


@pytest.mark.parametrize("scenario", ["commands", "commands-faults"])
@pytest.mark.parametrize("layered, base", M_PAIRS)
def test_malleable_easy_is_easy_e_on_rigid_input(runs, layered, base, scenario):
    _assert_identical(runs, layered, base, scenario)


def test_inputs_reach_every_layer_input(runs):
    """The pairs are not vacuous: the inputs carry what each layer
    would act on, and the layered policies act on it elsewhere."""
    for seed in SEEDS:
        commands = runs.get("EASY-DE", "commands-faults", seed)[3]
        assert {"ecc", "cancel", "job-fail", "node-fail", "requeue", "decision"} <= commands
        rigid = runs.get("EASY-E", "rigid-faults", seed)[3]
        assert {"cancel", "job-fail", "node-fail", "requeue"} <= rigid
        assert not rigid & {"ecc", "ecc-dropped"}


def test_checkpoint_credit_is_an_elastic_input(runs):
    """The one exception found: under checkpoint credit -E is not its
    base even on rigid input, because the credit is a synthetic RT
    command that only the ECC processor applies."""
    assert any(
        runs.get("EASY-E", "rigid-checkpoint", seed)[2]
        != runs.get("EASY", "rigid-checkpoint", seed)[2]
        for seed in SEEDS
    )
