"""Kill-fuzz: SIGKILL a checkpointing run, resume, demand bitwise equality.

The strongest claim the durability layer makes is that a run killed at
an *arbitrary* moment — no warning, no cleanup, ``SIGKILL`` — and
resumed from its newest checkpoint finishes with exactly the metrics
and exactly the trace bytes of an uninterrupted run.  These tests
enforce it with real processes: a child simulates under periodic
checkpointing, the parent kills it once checkpoints appear (the poll
delay randomizes the kill point across event counts), then resumes
in-process and compares against a clean baseline.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import make_scheduler
from repro.durable.checkpoint import list_checkpoints, resume
from repro.durable.signals import EXIT_INTERRUPTED
from repro.experiments.runner import simulate
from repro.faults.model import FaultConfig
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: Workload parameters shared verbatim by parent and child process.
SEED, N_JOBS = 11, 300

FAULTS = FaultConfig(mtbf=40000.0, mttr=2000.0, seed=5)

CHILD_TEMPLATE = """\
import sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.core.registry import make_scheduler
from repro.durable.checkpoint import CheckpointConfig
from repro.experiments.runner import simulate
from repro.faults.model import FaultConfig
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.twostage import TwoStageSizeConfig

config = GeneratorConfig(
    n_jobs={n_jobs}, size=TwoStageSizeConfig(p_small=0.5),
    p_extend=0.3, p_reduce=0.2,
)
workload = CWFWorkloadGenerator(config).generate(np.random.default_rng({seed}))
faults = FaultConfig(mtbf=40000.0, mttr=2000.0, seed=5) if {faulty} else None
simulate(
    workload,
    make_scheduler({algorithm!r}),
    faults=faults,
    trace_out={trace!r},
    checkpoint=CheckpointConfig(dir={ckdir!r}, every_events=40, keep=3),
)
"""


def generate():
    config = GeneratorConfig(
        n_jobs=N_JOBS, size=TwoStageSizeConfig(p_small=0.5),
        p_extend=0.3, p_reduce=0.2,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(SEED))


def spawn_and_kill(tmp_path, algorithm, *, faulty=False, min_checkpoints=1):
    """Start a checkpointing child, SIGKILL it once checkpoints appear.

    Returns (checkpoint_dir, trace_path, killed) — ``killed`` is False
    when the child outran the poll and completed, which the caller
    treats identically (resume from the final checkpoint must still be
    exact).
    """
    ckdir = tmp_path / "ck"
    trace = tmp_path / "run.jsonl"
    script = tmp_path / "child.py"
    script.write_text(CHILD_TEMPLATE.format(
        src=str(SRC), n_jobs=N_JOBS, seed=SEED, faulty=faulty,
        algorithm=algorithm, trace=str(trace), ckdir=str(ckdir),
    ))
    child = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        cwd=str(tmp_path),
    )
    killed = False
    deadline = time.monotonic() + 120
    try:
        while time.monotonic() < deadline:
            if child.poll() is not None:
                break
            if len(list_checkpoints(ckdir)) >= min_checkpoints:
                child.kill()  # SIGKILL: no handlers, no cleanup
                killed = True
                break
            time.sleep(0.002)
        else:
            pytest.fail("child produced no checkpoint within 120s")
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if not killed and child.returncode != 0:
        stderr = child.stderr.read().decode(errors="replace")
        pytest.fail(f"child failed before any checkpoint:\n{stderr}")
    assert list_checkpoints(ckdir), "no checkpoint survived the kill"
    return ckdir, trace, killed


class TestKillFuzz:
    @pytest.mark.parametrize(
        "algorithm", ["LOS", "LOS-E", "Delayed-LOS-E", "Hybrid-LOS-E"]
    )
    def test_sigkill_resume_is_bitwise_equal(self, tmp_path, algorithm):
        baseline_trace = tmp_path / "baseline.jsonl"
        baseline = simulate(
            generate(), make_scheduler(algorithm), trace_out=str(baseline_trace)
        )
        ckdir, trace, _killed = spawn_and_kill(tmp_path, algorithm)
        metrics = resume(ckdir)
        assert metrics == baseline, f"kill/resume diverged for {algorithm}"
        assert trace.read_bytes() == baseline_trace.read_bytes()

    def test_sigkill_resume_under_fault_injection(self, tmp_path):
        baseline_trace = tmp_path / "baseline.jsonl"
        baseline = simulate(
            generate(),
            make_scheduler("LOS-E"),
            faults=FAULTS,
            trace_out=str(baseline_trace),
        )
        ckdir, trace, _killed = spawn_and_kill(tmp_path, "LOS-E", faulty=True)
        metrics = resume(ckdir)
        assert metrics == baseline
        assert metrics.requeue_count == baseline.requeue_count
        assert trace.read_bytes() == baseline_trace.read_bytes()

    def test_repeated_kill_resume_cycles(self, tmp_path):
        # Kill, resume-with-checkpointing, kill the *resumed* run too,
        # resume again: progress must survive arbitrary cycle counts.
        baseline = simulate(generate(), make_scheduler("LOS"))
        ckdir, _trace, killed = spawn_and_kill(tmp_path, "LOS", min_checkpoints=2)
        before = list_checkpoints(ckdir)[-1]
        if killed:
            # Second cycle: resume in a child and kill that one as well.
            script = tmp_path / "resume_child.py"
            result = tmp_path / "resumed.pkl"
            script.write_text(
                f"import pickle, sys\n"
                f"sys.path.insert(0, {str(SRC)!r})\n"
                f"from repro.durable.checkpoint import resume\n"
                f"metrics = resume({str(ckdir)!r}, checkpoint_every=40)\n"
                f"open({str(result)!r}, 'wb').write(pickle.dumps(metrics))\n"
            )
            child = subprocess.Popen(
                [sys.executable, str(script)], stdout=subprocess.DEVNULL
            )
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break
                if list_checkpoints(ckdir) and list_checkpoints(ckdir)[-1] != before:
                    child.kill()
                    break
                time.sleep(0.002)
            if child.wait(timeout=60) == 0:
                # The resumed child outran the poll: it completed and
                # deleted its checkpoints, so its own result is the one
                # to check.
                assert pickle.loads(result.read_bytes()) == baseline
                return
        assert resume(ckdir) == baseline


class TestCliInterruptAndResume:
    def test_sigterm_checkpoints_then_cli_resume_completes(self, tmp_path):
        # A SIGTERM'd CLI sweep exits with the distinct resumable code
        # (75) after writing a final checkpoint; `repro resume` then
        # finishes the run and cleans the checkpoints up.
        ckdir = tmp_path / "ck"
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_JOBS="1")
        child = subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import main; raise SystemExit(main())",
                "--algorithms", "LOS",
                "--jobs", "1200",
                "--checkpoint-dir", str(ckdir),
                "--checkpoint-every", "40",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            cwd=str(tmp_path),
            env=env,
        )
        deadline = time.monotonic() + 180
        terminated = False
        while time.monotonic() < deadline:
            if child.poll() is not None:
                break
            if list_checkpoints(ckdir / "LOS"):
                child.send_signal(signal.SIGTERM)
                terminated = True
                break
            time.sleep(0.002)
        returncode = child.wait(timeout=120)
        if not terminated:
            pytest.skip("run completed before SIGTERM could be delivered")
        assert returncode == EXIT_INTERRUPTED
        assert list_checkpoints(ckdir / "LOS"), "no final checkpoint on SIGTERM"

        from repro.cli import repro_main

        assert repro_main(["resume", str(ckdir / "LOS")]) == 0
        assert list_checkpoints(ckdir / "LOS") == []  # cleaned up when done
