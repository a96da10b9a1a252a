"""The resume oracle: a checkpointed/resumed run is bitwise-identical.

This is the durability layer's contract (docs/resilience.md): for every
registry algorithm, under fault injection, in streaming mode and with
tracing attached, completing a run from any mid-run checkpoint yields
the same :class:`~repro.metrics.records.RunMetrics` (dataclass
equality) and the same trace bytes as the uninterrupted run.  The
subprocess SIGKILL variant lives in ``test_kill_fuzz.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import __version__
from repro.core.registry import ALGORITHMS, make_scheduler
from repro.durable.atomic import checksummed_read, checksummed_write
from repro.durable.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointConfig,
    CheckpointError,
    inspect_checkpoint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    resume,
    save_checkpoint,
)
from repro.experiments.runner import SimulationRunner, simulate
from repro.faults.model import FaultConfig
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.transform import make_malleable
from repro.workload.twostage import TwoStageSizeConfig

#: Fault-injected coverage uses this subset: non-elastic policies hit a
#: pre-existing full-machine-job-on-degraded-machine limitation that is
#: independent of checkpointing.
FAULT_ALGORITHMS = ["EASY", "LOS-E", "Hybrid-LOS-E"]

FAULTS = FaultConfig(mtbf=40000.0, mttr=2000.0, seed=5)


def generate(seed=11, n_jobs=60, p_dedicated=0.0, p_extend=0.3, p_reduce=0.2):
    config = GeneratorConfig(
        n_jobs=n_jobs,
        size=TwoStageSizeConfig(p_small=0.5),
        p_dedicated=p_dedicated,
        p_extend=p_extend,
        p_reduce=p_reduce,
    )
    return CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))


def checkpointed_run(tmp_path, algorithm, *, faults=None, every=60, **kwargs):
    """One run checkpointed with unlimited retention; returns (metrics, dir)."""
    ckdir = tmp_path / f"ck-{algorithm}"
    config = CheckpointConfig(dir=ckdir, every_events=every, keep=0)
    metrics = simulate(
        generate(),
        make_scheduler(algorithm),
        faults=faults,
        checkpoint=config,
        **kwargs,
    )
    return metrics, ckdir


class TestResumeOracle:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_resume_matches_uninterrupted(self, tmp_path, algorithm):
        baseline = simulate(generate(), make_scheduler(algorithm))
        checkpointed, ckdir = checkpointed_run(tmp_path, algorithm)
        assert checkpointed == baseline, "checkpointing perturbed the run"
        checkpoints = list_checkpoints(ckdir)
        assert checkpoints, "run produced no checkpoints"
        middle = checkpoints[len(checkpoints) // 2]
        resumed = load_checkpoint(middle).run()
        assert resumed == baseline, f"resume diverged for {algorithm}"

    @pytest.mark.parametrize("algorithm", FAULT_ALGORITHMS)
    def test_resume_under_fault_injection(self, tmp_path, algorithm):
        baseline = simulate(generate(), make_scheduler(algorithm), faults=FAULTS)
        checkpointed, ckdir = checkpointed_run(tmp_path, algorithm, faults=FAULTS)
        assert checkpointed == baseline
        checkpoints = list_checkpoints(ckdir)
        middle = checkpoints[len(checkpoints) // 2]
        resumed = load_checkpoint(middle).run()
        assert resumed == baseline, f"fault-injected resume diverged for {algorithm}"
        assert resumed.requeue_count == baseline.requeue_count
        assert resumed.lost_work == baseline.lost_work

    def test_every_checkpoint_resumes_identically(self, tmp_path):
        # Not just the middle one: every checkpoint of a run is a valid
        # resume point producing the same final state.
        baseline = simulate(generate(), make_scheduler("Delayed-LOS-E"))
        _, ckdir = checkpointed_run(tmp_path, "Delayed-LOS-E", every=150)
        for path in list_checkpoints(ckdir):
            assert load_checkpoint(path).run() == baseline, path.name

    def test_online_aggregates_survive_resume(self, tmp_path):
        # RunMetrics equality excludes the online summary (compare=False),
        # so check it explicitly: the O(1)-memory aggregator state is part
        # of the checkpoint.
        workload = generate()
        baseline = SimulationRunner(
            workload, make_scheduler("LOS-E"), online=True
        ).run()
        ckdir = tmp_path / "ck"
        runner = SimulationRunner(
            generate(), make_scheduler("LOS-E"), online=True
        )
        runner.run(checkpoint=CheckpointConfig(dir=ckdir, every_events=60, keep=0))
        checkpoints = list_checkpoints(ckdir)
        resumed = load_checkpoint(checkpoints[len(checkpoints) // 2]).run()
        assert baseline.online is not None
        assert resumed.online == baseline.online

    def test_resume_helper_runs_from_directory(self, tmp_path):
        baseline = simulate(generate(), make_scheduler("EASY"))
        _, ckdir = checkpointed_run(tmp_path, "EASY")
        assert resume(ckdir) == baseline

    def test_resume_with_dedicated_jobs(self, tmp_path):
        # Heterogeneous coverage: dedicated (rigid-start) jobs in the mix.
        workload = generate(p_dedicated=0.2)
        baseline = simulate(workload, make_scheduler("LOS-DE"))
        ckdir = tmp_path / "ck"
        simulate(
            generate(p_dedicated=0.2),
            make_scheduler("LOS-DE"),
            checkpoint=CheckpointConfig(dir=ckdir, every_events=60, keep=0),
        )
        checkpoints = list_checkpoints(ckdir)
        middle = checkpoints[len(checkpoints) // 2]
        assert load_checkpoint(middle).run() == baseline

    def test_checkpoints_taken_mid_instant_resume(self, tmp_path):
        # A cadence of 7 events puts some boundaries after an arrival,
        # finish or command but before the cycle it requested: the
        # saved engine still owes that cycle and holds queued arrivals.
        workload = generate(p_dedicated=0.2)
        baseline = simulate(workload, make_scheduler("Hybrid-LOS-E"))
        ckdir = tmp_path / "ck"
        simulate(
            generate(p_dedicated=0.2),
            make_scheduler("Hybrid-LOS-E"),
            checkpoint=CheckpointConfig(dir=ckdir, every_events=7, keep=0),
        )
        owing = 0
        for index, path in enumerate(list_checkpoints(ckdir)):
            runner = load_checkpoint(path)
            sim = runner.sim
            if sim._lane:
                assert sim.peek_time() <= sim._lane[0][0], path.name
            if not sim._cycles_owed:
                assert runner.run() == baseline, path.name
                continue
            owing += 1
            # The checkpointed drive polls peek_time() for what is due:
            # an owed cycle is due at the clock itself.
            assert sim.peek_time() == sim.now, path.name
            # Resumed through that drive, cut into checkpoints again.
            again = CheckpointConfig(dir=tmp_path / f"again-{index}", every_events=10, keep=1)
            assert runner.run(checkpoint=again) == baseline, path.name
        assert owing > 0

class TestTraceByteEquality:
    def test_resumed_trace_is_byte_identical(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        ckpt = tmp_path / "ckpt.jsonl"
        baseline = simulate(
            generate(), make_scheduler("Hybrid-LOS-E"), trace_out=str(plain)
        )
        ckdir = tmp_path / "ck"
        checkpointed = simulate(
            generate(),
            make_scheduler("Hybrid-LOS-E"),
            trace_out=str(ckpt),
            checkpoint=CheckpointConfig(dir=ckdir, every_events=60, keep=0),
        )
        assert checkpointed == baseline
        expected = plain.read_bytes()
        assert ckpt.read_bytes() == expected

        # Resume from the middle: the journal truncates the trace back
        # to the checkpoint's offset and re-appends the tail, ending
        # byte-identical.
        checkpoints = list_checkpoints(ckdir)
        middle = checkpoints[len(checkpoints) // 2]
        resumed = load_checkpoint(middle).run()
        assert resumed == baseline
        assert ckpt.read_bytes() == expected

    def test_checkpoint_between_run_calls_keeps_the_trace(self, tmp_path):
        # Between run() calls the trace file is closed; the checkpoint
        # journals it from the runner, and resume continues it.
        plain, split = tmp_path / "plain.jsonl", tmp_path / "split.jsonl"
        baseline = simulate(generate(), make_scheduler("EASY"), trace_out=plain)
        runner = SimulationRunner(generate(), make_scheduler("EASY"), trace_out=split)
        start = runner.tracker.start_time
        runner.run(until=start + baseline.makespan / 3)
        path = save_checkpoint(runner, CheckpointConfig(dir=tmp_path / "ck"))
        runner.run(until=start + baseline.makespan / 2)
        assert load_checkpoint(path).run() == baseline
        assert split.read_bytes() == plain.read_bytes()

    def test_resume_truncates_torn_trace_tail(self, tmp_path):
        # A writer killed mid-record leaves a torn final line past the
        # journalled offset; resume discards it.
        trace = tmp_path / "run.jsonl"
        ckdir = tmp_path / "ck"
        baseline = simulate(generate(), make_scheduler("EASY"))
        simulate(
            generate(),
            make_scheduler("EASY"),
            trace_out=str(trace),
            checkpoint=CheckpointConfig(dir=ckdir, every_events=60, keep=0),
        )
        expected = trace.read_bytes()
        checkpoints = list_checkpoints(ckdir)
        middle = checkpoints[len(checkpoints) // 2]
        offset = inspect_checkpoint(middle)["trace"]["offset"]
        with open(trace, "r+b") as fh:
            fh.truncate(offset)
            fh.seek(0, 2)
            fh.write(b'{"t": 123.0, "kind": "sta')  # torn mid-record
        resumed = load_checkpoint(middle).run()
        assert resumed == baseline
        assert trace.read_bytes() == expected


class TestStreamingResume:
    def test_synthetic_stream_resumes(self, tmp_path):
        from repro.workload.streaming import SyntheticStreamSpec

        spec = SyntheticStreamSpec(
            config=GeneratorConfig(
                n_jobs=120, size=TwoStageSizeConfig(p_small=0.5), p_extend=0.2
            ),
            seed=3,
        )
        baseline = simulate(spec.build(), make_scheduler("EASY"))
        ckdir = tmp_path / "ck"
        checkpointed = simulate(
            spec.build(),
            make_scheduler("EASY"),
            checkpoint=CheckpointConfig(dir=ckdir, every_events=80, keep=0),
        )
        assert checkpointed == baseline
        checkpoints = list_checkpoints(ckdir)
        middle = checkpoints[len(checkpoints) // 2]
        assert load_checkpoint(middle).run() == baseline

    def test_swf_stream_resumes(self, tmp_path):
        from repro.workload.streaming import SWFStreamSpec
        from repro.workload.swf import SWFRecord, write_swf

        # Sizes off the 4-proc granularity are snapped, submissions
        # start at t=500 and are rebased, and adjacent swaps put the
        # file locally out of order for the reorder heap to restore.
        rng = np.random.default_rng(7)
        records = []
        for job_id in range(1, 121):
            runtime = float(rng.integers(50, 2000))
            records.append(SWFRecord(
                job_id=job_id,
                submit=500.0 + 37.0 * job_id + float(rng.integers(0, 30)),
                run_time=runtime,
                requested_time=runtime * 1.5,
                requested_procs=int(rng.integers(1, 62)),
                status=1,
            ))
        for i in range(0, 110, 9):
            records[i], records[i + 1] = records[i + 1], records[i]
        path = tmp_path / "swapped.swf"
        write_swf(records, path, header=("MaxProcs: 64",))

        spec = SWFStreamSpec(path=str(path), granularity=4)
        jobs = list(spec)
        assert jobs[0].submit == 0.0 and all(job.num % 4 == 0 for job in jobs)
        baseline = simulate(spec.build(), make_scheduler("EASY"))
        ckdir = tmp_path / "ck"
        checkpointed = simulate(
            spec.build(),
            make_scheduler("EASY"),
            checkpoint=CheckpointConfig(dir=ckdir, every_events=50, keep=0),
        )
        assert checkpointed == baseline
        checkpoints = list_checkpoints(ckdir)
        assert len(checkpoints) >= 3
        for checkpoint in checkpoints:
            assert load_checkpoint(checkpoint).run() == baseline

    def test_specless_stream_refuses_mid_stream_checkpoint(self, tmp_path):
        from repro.workload.streaming import JobStream

        # Longer than the admission window, so the stream is still
        # mid-flight (not yet exhausted) when the checkpoint is taken.
        workload = generate(n_jobs=200)
        stream = JobStream(
            items=iter(workload.jobs),
            machine_size=workload.machine_size,
            granularity=workload.granularity,
        )
        runner = SimulationRunner(stream, make_scheduler("EASY"))
        with pytest.raises(CheckpointError, match="spec"):
            save_checkpoint(runner, tmp_path / "ck")


class TestCheckpointFiles:
    def test_rotation_keeps_last_k(self, tmp_path):
        ckdir = tmp_path / "ck"
        simulate(
            generate(),
            make_scheduler("EASY"),
            checkpoint=CheckpointConfig(dir=ckdir, every_events=60, keep=2),
        )
        assert len(list_checkpoints(ckdir)) <= 2

    def test_inspect_returns_metadata(self, tmp_path):
        _, ckdir = checkpointed_run(tmp_path, "EASY")
        path = latest_checkpoint(ckdir)
        meta = inspect_checkpoint(path)
        assert meta["algorithm"] == "EASY"
        assert meta["event_count"] > 0

    def test_corrupt_checkpoint_is_rejected(self, tmp_path):
        _, ckdir = checkpointed_run(tmp_path, "EASY")
        path = latest_checkpoint(ckdir)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_checkpoint_is_rejected(self, tmp_path):
        _, ckdir = checkpointed_run(tmp_path, "EASY")
        path = latest_checkpoint(ckdir)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_latest_skips_corrupt_newest(self, tmp_path):
        baseline = simulate(generate(), make_scheduler("EASY"))
        _, ckdir = checkpointed_run(tmp_path, "EASY")
        checkpoints = list_checkpoints(ckdir)
        assert len(checkpoints) >= 2
        newest = checkpoints[-1]
        newest.write_bytes(b"garbage" * 100)
        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            found = latest_checkpoint(ckdir)
        assert found == checkpoints[-2]
        assert load_checkpoint(found).run() == baseline

    def test_run_key_mismatch_is_rejected(self, tmp_path):
        runner = SimulationRunner(generate(), make_scheduler("EASY"))
        path = save_checkpoint(
            runner, CheckpointConfig(dir=tmp_path / "ck", run_key="abc")
        )
        assert load_checkpoint(path, expect_run_key="abc") is not None
        with pytest.raises(CheckpointError, match="run"):
            load_checkpoint(path, expect_run_key="different")

    def test_non_runner_payload_is_rejected(self, tmp_path):
        path = tmp_path / "ck" / "ckpt-000000000001.ckpt"
        checksummed_write(
            path,
            pickle.dumps({"not": "a runner"}),
            magic=CHECKPOINT_SCHEMA,
            meta={"repro_version": __version__},
        )
        with pytest.raises(CheckpointError, match="SimulationRunner"):
            load_checkpoint(path)

    def test_version_mismatch_is_rejected(self, tmp_path):
        # Another version's runner may unpickle into a different shape
        # (v1.18's engine holds an arrival lane a v1.17 one lacks), so
        # the header's version is checked before the payload is loaded.
        _, ckdir = checkpointed_run(tmp_path, "EASY")
        path = latest_checkpoint(ckdir)
        header, payload = checksummed_read(path, magic=CHECKPOINT_SCHEMA)
        meta = dict(header["meta"], repro_version="1.17.0")
        checksummed_write(path, payload, magic=CHECKPOINT_SCHEMA, meta=meta)
        with pytest.raises(CheckpointError, match="written by repro 1.17.0"):
            load_checkpoint(path)

    def test_checkpoint_is_checksummed_container(self, tmp_path):
        _, ckdir = checkpointed_run(tmp_path, "EASY")
        path = latest_checkpoint(ckdir)
        header, payload = checksummed_read(path, magic=CHECKPOINT_SCHEMA)
        assert header["magic"] == CHECKPOINT_SCHEMA
        assert isinstance(pickle.loads(payload), SimulationRunner)

    def test_telemetry_counts_checkpoints(self, tmp_path):
        metrics, ckdir = checkpointed_run(tmp_path, "EASY")
        assert metrics.telemetry is not None
        written = metrics.telemetry.counters.get("checkpoints_written", 0)
        assert written == len(list_checkpoints(ckdir))


class TestConfig:
    def test_coerce_accepts_paths_and_configs(self, tmp_path):
        config = CheckpointConfig.coerce(tmp_path)
        assert config.dir == tmp_path
        assert CheckpointConfig.coerce(config) is config
        with pytest.raises(TypeError):
            CheckpointConfig.coerce(42)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointConfig(dir=tmp_path, every_events=0)
        with pytest.raises(ValueError):
            CheckpointConfig(dir=tmp_path, every_seconds=0.0)
        with pytest.raises(ValueError):
            CheckpointConfig(dir=tmp_path, keep=-1)

    def test_resume_without_checkpoints_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no usable checkpoint"):
            resume(tmp_path)


class TestMalleableResume:
    """Scheduler-initiated resizes are engine events like any other:
    resuming mid-run must replay them bit-for-bit
    (docs/malleability.md)."""

    @pytest.mark.parametrize(
        "algorithm", ["Malleable-FCFS", "Malleable-Backfill", "Malleable-Agreement"]
    )
    def test_resume_matches_uninterrupted(self, tmp_path, algorithm):
        workload = make_malleable(generate(), 1.0, seed=3)
        baseline = simulate(workload, make_scheduler(algorithm))
        ckdir = tmp_path / "ck"
        config = CheckpointConfig(dir=ckdir, every_events=60, keep=0)
        assert simulate(workload, make_scheduler(algorithm), checkpoint=config) == baseline
        checkpoints = list_checkpoints(ckdir)
        assert checkpoints, "run too short to checkpoint"
        middle = checkpoints[len(checkpoints) // 2]
        assert load_checkpoint(middle).run() == baseline

    def test_resumed_trace_with_resizes_is_byte_identical(self, tmp_path):
        workload = make_malleable(generate(), 1.0, seed=3)
        plain = tmp_path / "plain.jsonl"
        ckpt = tmp_path / "ckpt.jsonl"
        baseline = simulate(
            workload, make_scheduler("Malleable-Backfill"), trace_out=str(plain)
        )
        expected = plain.read_bytes()
        assert b'"origin": "scheduler"' in expected or b'"origin":"scheduler"' in expected, (
            "the scenario must actually exercise scheduler-initiated resizes"
        )
        ckdir = tmp_path / "ck"
        checkpointed = simulate(
            workload,
            make_scheduler("Malleable-Backfill"),
            trace_out=str(ckpt),
            checkpoint=CheckpointConfig(dir=ckdir, every_events=60, keep=0),
        )
        assert checkpointed == baseline
        assert ckpt.read_bytes() == expected
        # resume from the middle; the journal truncates and re-appends
        checkpoints = list_checkpoints(ckdir)
        middle = checkpoints[len(checkpoints) // 2]
        resumed = load_checkpoint(middle).run()
        assert resumed == baseline
        assert ckpt.read_bytes() == expected
