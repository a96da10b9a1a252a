"""Crash-consistent checkpoints of a running simulation, exact resume.

A checkpoint (schema :data:`CHECKPOINT_SCHEMA`) captures the complete
:class:`~repro.experiments.runner.SimulationRunner` state between two
events: virtual clock, event heap, arrival lane and owed cycles,
queues and active list, machine placement (including fault/degraded
state), applied-ECC state, every RNG (workload, faults), online-metric
aggregators, telemetry counters, and the streaming reader's position.
The state is one pickle of the runner's object graph — every piece is
plain data by construction, the engine's same-instant tie-break
counter included — with exactly two unpicklable attachments detached
and reconstructed on load:

- the feed iterator (a generator): the runner keeps the pull count
  and the feed's source — the
  :class:`~repro.workload.generator.Workload` itself, or the stream's
  :class:`~repro.workload.streaming.StreamSpec`; resume re-iterates
  it and fast-forwards, which recreates the identical iterator state
  (feeds are deterministic functions of their source, reorder-heap
  contents included);
- the live :class:`~repro.obs.trace_io.TraceWriter` (an open file):
  the checkpoint journals the durable byte offset and record count;
  load hands that journal to the runner, whose next ``run()``
  truncates the trace file back to that offset and appends — the
  continuation a split ``run(until=...)`` uses too — so the finished
  file is byte-identical to an uninterrupted run's.

**The resume guarantee** — enforced by the kill-fuzz oracle in
``tests/durable/`` across the full algorithm registry, under fault
injection and on streamed feeds: a run killed at any checkpoint
boundary and resumed produces bitwise-identical
:class:`~repro.metrics.records.RunMetrics` and trace bytes.

Checkpoint files are written atomically (tmp + fsync + rename) and
checksummed (:mod:`repro.durable.atomic`); a torn or corrupt file is
rejected on load and skipped by :func:`latest_checkpoint`, which falls
back to the previous one — rotation keeps the last
:attr:`CheckpointConfig.keep`.
"""

from __future__ import annotations

import pickle
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

from repro.durable.atomic import CorruptFileError, checksummed_read, checksummed_write
from repro.durable.signals import SignalFlag, graceful_shutdown
from repro.obs.spans import begin as _span_begin, end as _span_end

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us lazily)
    from repro.experiments.runner import SimulationRunner
    from repro.metrics.records import RunMetrics

#: Schema tag of every checkpoint file; readers reject others.
CHECKPOINT_SCHEMA = "repro.ckpt/1"

#: Filename suffix of checkpoint files.
CHECKPOINT_SUFFIX = ".ckpt"

#: Default event-count cadence.  Sized so the paper's workloads
#: (thousands of events) checkpoint rarely and archive-scale replays
#: (millions) every few seconds — measured overhead at this cadence is
#: well under the 5% budget the perf gate enforces.
DEFAULT_EVERY_EVENTS = 50_000

#: Events simulated per engine call inside the checkpointed loop —
#: the polling granularity for wall-clock triggers and shutdown
#: signals.  Small enough that a SIGTERM is honoured within
#: milliseconds, large enough that the extra loop iterations vanish
#: against per-event costs.
POLL_EVENTS = 2048


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or reattached."""


class CheckpointInterrupt(KeyboardInterrupt):
    """A shutdown signal arrived; the final checkpoint was written.

    Subclasses ``KeyboardInterrupt`` so it propagates through generic
    ``except Exception`` handlers exactly like a Ctrl-C would.

    Attributes:
        path: The final checkpoint file.
        signum: The signal that triggered the shutdown.
    """

    def __init__(self, path: Union[str, Path], signum: int) -> None:
        super().__init__(str(path), signum)
        self.path = str(path)
        self.signum = signum


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to checkpoint a run.

    Attributes:
        dir: Directory holding this run's rotated checkpoints.
        every_events: Checkpoint after this many simulated events.
        every_seconds: Optional wall-clock cadence (whichever trigger
            fires first wins; both reset on every write).
        keep: Rotation depth — older checkpoints beyond the newest
            ``keep`` are deleted after each write (0 = keep all).
        run_key: Optional identity digest stamped into headers; resume
            validates it so a checkpoint directory can never hand a
            different run's state to an unsuspecting spec.
    """

    dir: Union[str, Path]
    every_events: int = DEFAULT_EVERY_EVENTS
    every_seconds: Optional[float] = None
    keep: int = 3
    run_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.every_events < 1:
            raise ValueError(f"every_events must be positive, got {self.every_events}")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValueError(f"every_seconds must be positive, got {self.every_seconds}")
        if self.keep < 0:
            raise ValueError(f"keep must be non-negative, got {self.keep}")

    @classmethod
    def coerce(cls, value: Union["CheckpointConfig", str, Path]) -> "CheckpointConfig":
        """A config from itself or a bare checkpoint-directory path."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, Path)):
            return cls(dir=value)
        raise TypeError(
            f"checkpoint must be a CheckpointConfig or a directory path, got {value!r}"
        )


# ----------------------------------------------------------------------
# Capture and write
# ----------------------------------------------------------------------
def _capture(
    runner: "SimulationRunner", *, run_key: Optional[str] = None
) -> tuple[bytes, Dict[str, Any]]:
    """Pickle the runner's full state between events.

    The unpicklable attachments (feed iterator, live trace writer) are
    detached for the duration of the dump and restored afterwards — the
    runner keeps running unperturbed.
    """
    from repro import __version__

    sim = runner.sim
    if sim._running:
        raise CheckpointError(
            "checkpoints must be taken between events (Simulator.run is active); "
            "use run(checkpoint=...) which segments the event loop"
        )
    if runner._feed_next is not None and runner._replay is None:
        raise CheckpointError(
            "this JobStream has no rebuildable spec; mid-stream checkpoints "
            "need one (use the stream_* constructors or attach a StreamSpec)"
        )

    writer = runner._trace_writer
    # Between run() calls the file is closed and the runner holds its
    # journal; mid-run the live writer is synced to make one.
    journal = runner._trace_journal
    if writer is not None:
        try:
            journal = (writer.sync(), writer.count)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot journal the trace file: {exc}") from exc
    trace_journal = None
    if journal is not None:
        trace_journal = {
            "path": str(runner._trace_out),
            "offset": journal[0],
            "count": journal[1],
        }

    saved_feed = runner._feed
    try:
        runner._feed = None
        runner._trace_writer = None
        try:
            payload = pickle.dumps(runner, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(f"runner state is not picklable: {exc}") from exc
    finally:
        runner._feed = saved_feed
        runner._trace_writer = writer

    meta: Dict[str, Any] = {
        "event_count": sim.processed_events,
        "sim_time": sim.now,
        "algorithm": runner.scheduler.name,
        "stream_pulled": runner._feed_pulled,
        "run_key": run_key,
        "trace": trace_journal,
        "repro_version": __version__,
        "wrote_at": time.time(),
    }
    return payload, meta


def checkpoint_path(directory: Union[str, Path], event_count: int) -> Path:
    """Canonical checkpoint filename for a given event count."""
    return Path(directory) / f"ckpt-{event_count:012d}{CHECKPOINT_SUFFIX}"


def save_checkpoint(
    runner: "SimulationRunner",
    config: Union[CheckpointConfig, str, Path],
) -> Path:
    """Write one rotated checkpoint of ``runner`` into ``config.dir``.

    Atomic and checksummed: a crash mid-write leaves the previous
    checkpoints untouched and at worst an ignorable temp file.
    Returns the checkpoint path.
    """
    config = CheckpointConfig.coerce(config)
    token = _span_begin("checkpoint_save")
    try:
        payload, meta = _capture(runner, run_key=config.run_key)
        path = checkpoint_path(config.dir, meta["event_count"])
        checksummed_write(path, payload, magic=CHECKPOINT_SCHEMA, meta=meta)
        runner.telemetry.count("checkpoints_written")
        if config.keep > 0:
            for old in list_checkpoints(config.dir)[: -config.keep]:
                try:
                    old.unlink()
                except OSError:  # pragma: no cover - racing cleanup is fine
                    pass
        return path
    finally:
        _span_end(token)


# ----------------------------------------------------------------------
# Discovery and load
# ----------------------------------------------------------------------
def list_checkpoints(directory: Union[str, Path]) -> List[Path]:
    """All checkpoint files under ``directory``, oldest first.

    Filenames embed the zero-padded event count, so lexicographic
    order is chronological order.  No validation — pair with
    :func:`inspect_checkpoint` or :func:`latest_checkpoint`.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob(f"ckpt-*{CHECKPOINT_SUFFIX}"))


def _read(path: Union[str, Path]) -> Tuple[Dict[str, Any], bytes]:
    """One checksummed read of a checkpoint: ``(metadata, payload)``.

    Every failure — corruption, a missing file, an I/O error — is a
    :class:`CheckpointError`.
    """
    try:
        header, payload = checksummed_read(Path(path), magic=CHECKPOINT_SCHEMA)
    except CorruptFileError as exc:
        raise CheckpointError(str(exc)) from None
    except FileNotFoundError:
        raise CheckpointError(f"no such checkpoint: {path}") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    return header.get("meta", {}), payload


def inspect_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Fully validate a checkpoint file and return its metadata.

    Verifies the schema tag and the payload checksum (the payload is
    read but not unpickled).  Raises :class:`CheckpointError` on any
    corruption.
    """
    return _read(path)[0]


def latest_checkpoint(directory: Union[str, Path]) -> Optional[Path]:
    """Newest *usable* checkpoint in ``directory`` (None when none).

    Corrupt or truncated files — a writer killed mid-rename never
    produces one, but bit rot or manual tampering can — are skipped
    with a ``RuntimeWarning``, falling back to the next-newest.
    """
    for path in reversed(list_checkpoints(directory)):
        try:
            inspect_checkpoint(path)
        except CheckpointError as exc:
            warnings.warn(
                f"skipping unusable checkpoint: {exc}", RuntimeWarning, stacklevel=2
            )
            continue
        return path
    return None


def load_checkpoint(
    source: Union[str, Path],
    *,
    trace_out: Optional[Union[str, Path]] = None,
    expect_run_key: Optional[str] = None,
) -> "SimulationRunner":
    """Restore a runner from a checkpoint file (or directory).

    Reverses :func:`_capture`: unpickles the runner, rebuilds the feed
    iterator from its source (fast-forwarding to the recorded pull
    position), and hands the runner the trace journal, so its next
    :meth:`SimulationRunner.run` continues the trace file in journaled
    append-resume mode.

    Args:
        source: Checkpoint file, or a checkpoint directory (the newest
            usable checkpoint is taken).
        trace_out: Override for the trace file location (default: the
            path recorded in the journal).
        expect_run_key: When given, the checkpoint's stamped run key
            must match — the guard that keeps a sweep from resuming
            the wrong spec's state.

    Raises:
        CheckpointError: corrupt file, schema/run-key/version mismatch,
            unpicklable payload, missing trace file, or a stream that
            ended before the recorded position.
    """
    path = Path(source)
    found = latest_checkpoint(path) if path.is_dir() else path
    if found is None:
        raise CheckpointError(f"no usable checkpoint under {path}")
    return _load(found, trace_out, expect_run_key)[1]


def _load(
    path: Path,
    trace_out: Optional[Union[str, Path]],
    expect_run_key: Optional[str],
) -> Tuple[Dict[str, Any], "SimulationRunner"]:
    """:func:`load_checkpoint` of one file, with the file's metadata."""
    meta, payload = _read(path)
    if expect_run_key is not None and meta.get("run_key") != expect_run_key:
        raise CheckpointError(
            f"{path}: checkpoint belongs to run {meta.get('run_key')!r}, "
            f"not {expect_run_key!r}"
        )
    from repro import __version__

    if meta.get("repro_version") != __version__:
        # Checked before unpickling: another version's runner may load
        # into a different object shape and fail only mid-run.
        raise CheckpointError(
            f"{path}: checkpoint written by repro {meta.get('repro_version')}, "
            f"cannot resume under {__version__} — resume is only exact "
            "under the version that wrote it"
        )

    try:
        runner = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(f"{path}: cannot unpickle runner state: {exc}") from exc

    from repro.experiments.runner import SimulationRunner

    if not isinstance(runner, SimulationRunner):
        raise CheckpointError(
            f"{path}: payload is {type(runner).__name__}, not a SimulationRunner"
        )

    if runner._feed_next is None:
        runner._feed = iter(())
    else:
        iterator = iter(runner._replay)
        for pulled in range(runner._feed_pulled):
            if next(iterator, None) is None:
                raise CheckpointError(
                    f"{path}: feed ended after {pulled} items but the "
                    f"checkpoint recorded {runner._feed_pulled} pulls — "
                    "the source changed since the checkpoint was written"
                )
        runner._feed = iterator

    journal = meta.get("trace")
    if journal is not None:
        target = Path(trace_out) if trace_out is not None else Path(journal["path"])
        offset = int(journal["offset"])
        try:
            size = target.stat().st_size
        except OSError as exc:
            raise CheckpointError(
                f"{path}: cannot resume trace file {target}: {exc}"
            ) from exc
        if size < offset:
            raise CheckpointError(
                f"{path}: cannot resume trace file {target}: {size} bytes on "
                f"disk but the journal recorded {offset}"
            )
        runner._trace_out = target
        runner._trace_journal = (offset, int(journal["count"]))
    elif trace_out is not None:
        raise CheckpointError(
            f"{path}: the interrupted run was not tracing; a trace started "
            "mid-run would be missing its earlier records"
        )
    return meta, runner


# ----------------------------------------------------------------------
# The checkpointed event loop
# ----------------------------------------------------------------------
def drive_checkpointed(
    runner: "SimulationRunner",
    config: CheckpointConfig,
    *,
    until: Optional[float] = None,
) -> None:
    """Run the simulation in segments, checkpointing between events.

    Semantically identical to ``runner.sim.run(until=until)`` — the
    engine is called in bounded chunks, and checkpoints happen only at
    chunk boundaries where no event is mid-flight.  Shutdown signals
    (SIGINT/SIGTERM) are latched, honoured within :data:`POLL_EVENTS`
    events by writing a final checkpoint and raising
    :class:`CheckpointInterrupt`; a second signal interrupts
    immediately without a checkpoint.
    """
    sim = runner.sim
    flag = SignalFlag()
    with graceful_shutdown(flag):
        last_events = sim.processed_events
        last_wall = time.monotonic()
        while True:
            next_time = sim.peek_time()
            if next_time is None or (until is not None and next_time > until):
                break
            budget = config.every_events - (sim.processed_events - last_events)
            sim.run(until=until, max_events=max(1, min(budget, POLL_EVENTS)))
            due = sim.processed_events - last_events >= config.every_events
            if (
                config.every_seconds is not None
                and time.monotonic() - last_wall >= config.every_seconds
            ):
                due = True
            if flag.set:
                due = True
            if due:
                path = save_checkpoint(runner, config)
                last_events = sim.processed_events
                last_wall = time.monotonic()
                if flag.set:
                    assert flag.signum is not None
                    raise CheckpointInterrupt(path, flag.signum)
    # Residual engine semantics (clock advance to a horizon past the
    # last event); a no-op when the loop above drained everything.
    sim.run(until=until)


# ----------------------------------------------------------------------
# High-level resume
# ----------------------------------------------------------------------
def resume(
    source: Union[str, Path],
    *,
    checkpoint_every: Optional[int] = None,
    checkpoint_seconds: Optional[float] = None,
    trace_out: Optional[Union[str, Path]] = None,
    run_key: Optional[str] = None,
    start: Optional[Callable[[], "SimulationRunner"]] = None,
    on_load: Optional[Callable[[Path, Dict[str, Any]], None]] = None,
) -> "RunMetrics":
    """Run a checkpointed run to completion from its newest checkpoint.

    The one resume routine: ``repro resume``, a
    :class:`~repro.experiments.parallel.RunSpec` with a
    ``checkpoint_dir`` and library callers all go through it.
    ``source`` is a checkpoint file, or a directory whose newest usable
    checkpoint is taken.  The continued run keeps checkpointing into
    that directory — every ``checkpoint_every`` events (default
    :data:`DEFAULT_EVERY_EVENTS`) and, when given, every
    ``checkpoint_seconds`` of wall time — so repeated kill/resume
    cycles always pick up the newest state.  Once the run completes,
    the directory's checkpoints are deleted: they would replay the
    tail of a finished run.

    Args:
        trace_out: Override for the trace file location (default: the
            path recorded in the journal).
        run_key: The checkpoint must belong to this run (see
            :func:`load_checkpoint`); the continued run stamps it into
            its own checkpoints.  Default: the loaded checkpoint's key.
        start: Builds a fresh runner for a directory that holds no
            checkpoint of this run, which then starts over (with a
            ``RuntimeWarning`` when a checkpoint is there but unusable
            or belongs to another run).  Without it, that is a
            :class:`CheckpointError`.
        on_load: Called with the checkpoint's path and metadata once
            it is loaded, before the run continues.

    Raises:
        CheckpointError: no usable checkpoint and no ``start``, or
            anything :func:`load_checkpoint` rejects.
        ValueError: a cadence :class:`CheckpointConfig` rejects.
        CheckpointInterrupt: a shutdown signal arrived and the final
            checkpoint was written.
    """
    path = Path(source)
    directory = path if start is not None or path.is_dir() else path.parent
    cadence = {} if checkpoint_every is None else {"every_events": checkpoint_every}
    config = CheckpointConfig(dir=directory, every_seconds=checkpoint_seconds, **cadence)
    found = latest_checkpoint(directory) if path == directory else path
    runner = None
    if found is not None:
        try:
            meta, runner = _load(found, trace_out, run_key)
        except CheckpointError as exc:
            if start is None:
                raise
            warnings.warn(
                f"cannot resume from {found}: {exc}; restarting the run",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            run_key = meta.get("run_key")
            if on_load is not None:
                on_load(found, meta)
    if runner is None:
        if start is None:
            raise CheckpointError(f"no usable checkpoint under {directory}")
        runner = start()
    metrics = runner.run(checkpoint=replace(config, run_key=run_key))
    for stale in list_checkpoints(directory):
        try:
            stale.unlink()
        except OSError:
            pass
    return metrics


__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_SUFFIX",
    "CheckpointConfig",
    "CheckpointError",
    "CheckpointInterrupt",
    "DEFAULT_EVERY_EVENTS",
    "POLL_EVENTS",
    "checkpoint_path",
    "drive_checkpointed",
    "inspect_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "resume",
    "save_checkpoint",
]
