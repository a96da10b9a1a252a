"""The record-at-a-time replay loop: the reference for the trace oracle.

:func:`repro.obs.analytics.replay` unpacks ``(time, kind, data)``
triples, builds each ``JobRecord`` positionally, and streams straight
from the trace reader.  This is the
loop it replaced, kept as it was: attribute reads per record, one
``JobRecord`` and one ``ECCEpisode`` built per completion and command.
Both must reconstruct the same timeline from the same records, field
for field (:func:`replay_differences`).

Run as a module to hold every given trace file to the reference, read
both as a stream (the record fields the trace oracle,
:func:`repro.obs.analytics.validate_trace_file`, replays) and as a
materialized record list::

    python -m tests.obs.replay_reference ci-*/*.jsonl

Exit status 0 when every file agrees, 1 when any differs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.records import JobRecord
from repro.obs.analytics import ECCEpisode, TraceReplay, replay
from repro.obs.trace_io import _iter_fields, read_meta, read_trace
from repro.sim.trace import TraceRecord
from repro.workload.job import JobKind

#: ``job_kind`` payload value -> :class:`JobKind`, without the enum
#: call per arrival.
_JOB_KINDS = {kind.value: kind for kind in JobKind}


@dataclass(frozen=True)
class ReferenceReplay:
    """What the reference loop reconstructs: :class:`TraceReplay`'s fields."""

    meta: Dict[str, Any]
    records: List[JobRecord]
    utilization_steps: List[Tuple[float, int]]
    queue_depth: List[Tuple[float, int]]
    ecc_episodes: List[ECCEpisode]
    start_time: float
    last_finish: float
    peak_level: int
    machine_size: Optional[int] = None
    n_trace_records: int = 0


@dataclass(slots=True)
class _JobReplayState:
    """Mutable per-job state while scanning the record stream."""

    submit: float = 0.0
    num: int = 0
    kind: JobKind = JobKind.BATCH
    requested_start: Optional[float] = None
    last_start: Optional[float] = None
    running_num: int = 0
    eccs_applied: int = 0
    cancelled_running: bool = False


def reference_replay(
    records: Iterable[TraceRecord], meta: Optional[Mapping[str, Any]] = None
) -> ReferenceReplay:
    """Reconstruct the full timeline of a traced run.

    Args:
        records: Trace records in file order (time-ordered; use
            ``repro trace --check`` first when in doubt).
        meta: Trace header metadata; ``machine_size`` enables
            utilization.

    Returns:
        A :class:`ReferenceReplay` with the rebuilt completion records,
        the utilization and queue-depth step functions, and every ECC
        episode.
    """
    meta = dict(meta or {})
    machine_size = meta.get("machine_size")
    machine_size = int(machine_size) if machine_size is not None else None

    jobs: Dict[int, _JobReplayState] = {}
    completed: List[JobRecord] = []
    ecc_episodes: List[ECCEpisode] = []
    utilization_steps: List[Tuple[float, int]] = []
    queue_depth: List[Tuple[float, int]] = []
    # Instant of each step function's last point: a change at the same
    # instant overwrites that point instead of adding one.
    level_time: Optional[float] = None
    queue_time: Optional[float] = None
    level = 0
    peak = 0
    waiting = 0
    start_time: Optional[float] = None
    last_finish: Optional[float] = None
    n = 0

    for record in records:
        n += 1
        time = record.time
        kind = record.kind
        data = record.data
        if start_time is None:
            start_time = time

        if kind == "arrive":
            state = jobs.setdefault(int(data.get("job")), _JobReplayState())
            state.submit = time
            state.num = int(data.get("num", 0))
            job_kind = data.get("job_kind", JobKind.BATCH.value)
            state.kind = _JOB_KINDS.get(job_kind) or JobKind(job_kind)
            requested = data.get("requested_start")
            state.requested_start = (
                float(requested) if requested is not None else None
            )
            waiting += 1
            if queue_time == time:
                queue_depth[-1] = (time, waiting)
            else:
                queue_depth.append((time, waiting))
                queue_time = time
        elif kind == "requeue":
            job_id = data.get("job")
            if job_id is not None and int(job_id) in jobs:
                waiting += 1
                if queue_time == time:
                    queue_depth[-1] = (time, waiting)
                else:
                    queue_depth.append((time, waiting))
                    queue_time = time
        elif kind == "start":
            job_id = data.get("job")
            state = jobs.get(int(job_id)) if job_id is not None else None
            if state is None:
                state = jobs.setdefault(int(job_id), _JobReplayState())
                state.submit = time
            state.last_start = time
            state.running_num = int(data.get("num", state.num))
            level += state.running_num
            if level > peak:
                peak = level
            if level_time == time:
                utilization_steps[-1] = (time, level)
            else:
                utilization_steps.append((time, level))
                level_time = time
            if waiting > 0:
                waiting -= 1
            if queue_time == time:
                queue_depth[-1] = (time, waiting)
            else:
                queue_depth.append((time, waiting))
                queue_time = time
        elif kind == "finish" or kind == "job-fail":
            job_id = data.get("job")
            state = jobs.get(int(job_id)) if job_id is not None else None
            if state is None or state.last_start is None:
                continue
            num = int(data.get("num", state.running_num))
            level -= num
            if level_time == time:
                utilization_steps[-1] = (time, level)
            else:
                utilization_steps.append((time, level))
                level_time = time
            if kind == "job-fail":
                state.last_start = None
                continue
            last_finish = time
            completed.append(
                JobRecord(
                    job_id=int(job_id),
                    kind=state.kind,
                    num=num,
                    submit=state.submit,
                    start=state.last_start,
                    finish=time,
                    requested_start=state.requested_start,
                    eccs_applied=state.eccs_applied,
                    cancelled=state.cancelled_running,
                )
            )
        elif kind == "cancel":
            if data.get("was") == "queued":
                if waiting > 0:
                    waiting -= 1
                if queue_time == time:
                    queue_depth[-1] = (time, waiting)
                else:
                    queue_depth.append((time, waiting))
                    queue_time = time
            elif data.get("was") == "running":
                # A "pending" job waited out a retry backoff in no queue.
                job_id = data.get("job")
                state = jobs.get(int(job_id)) if job_id is not None else None
                if state is not None:
                    state.cancelled_running = True
        elif kind == "ecc" or kind == "ecc-dropped":
            job_id = data.get("job")
            state = jobs.get(int(job_id)) if job_id is not None else None
            num = data.get("num")
            episode = ECCEpisode(
                time=time,
                job_id=int(job_id) if job_id is not None else -1,
                kind=str(data.get("ecc_kind", "?")),
                amount=float(data.get("amount", 0.0)),
                outcome=str(data.get("outcome", "dropped-not-elastic")),
                num=int(num) if num is not None else None,
                origin=str(data.get("origin", "job")),
            )
            ecc_episodes.append(episode)
            if state is None:
                continue
            applied = episode.applied
            if applied:
                state.eccs_applied += 1
            if episode.num is not None:
                if state.last_start is None:
                    state.num = episode.num
                elif applied and episode.num != state.running_num:
                    # Running resize (EP/RP under a malleable policy,
                    # docs/malleability.md): the busy level steps by
                    # the size delta at the command instant.
                    # Time-ECCs echo the unchanged size, so only
                    # genuine resizes land here.
                    level += episode.num - state.running_num
                    if level > peak:
                        peak = level
                    if level_time == time:
                        utilization_steps[-1] = (time, level)
                    else:
                        utilization_steps.append((time, level))
                        level_time = time
                    state.running_num = episode.num
        # "promote", "decision", "node-fail", "node-repair" and
        # "job-failed-permanently" change no replayed quantity:
        # promotion moves a job between queues (total waiting
        # unchanged), node events alter capacity placement but not the
        # busy level (evictions release at their own job-fail record).

    if start_time is None:
        start_time = 0.0
    if last_finish is None:
        last_finish = start_time
    return ReferenceReplay(
        meta=meta,
        records=completed,
        utilization_steps=utilization_steps,
        queue_depth=queue_depth,
        ecc_episodes=ecc_episodes,
        start_time=start_time,
        last_finish=last_finish,
        peak_level=peak,
        machine_size=machine_size,
        n_trace_records=n,
    )


#: The attributes a replay is compared on: every field of the reference.
COMPARED = tuple(ReferenceReplay.__dataclass_fields__)


def replay_differences(result: TraceReplay, reference: ReferenceReplay) -> List[str]:
    """The attributes on which ``result`` and ``reference`` differ (empty = equal).

    Equality is exact, and type-strict for the completion records: a
    ``JobRecord`` equals only a ``JobRecord``.  ``JobRecord`` is a
    NamedTuple, which equals a plain tuple of its values, so the record
    types are compared explicitly.
    """
    return [
        name for name in COMPARED
        if _typed(getattr(result, name)) != _typed(getattr(reference, name))
    ]


def _typed(value: Any) -> Any:
    """``value`` with each element of a list paired with its type."""
    if isinstance(value, list):
        return [(type(item), item) for item in value]
    return value


def compare_file(path: str) -> List[str]:
    """Differences of the streamed and the materialized replay of ``path``."""
    trace = read_trace(path)
    reference = reference_replay(trace.records, trace.meta)
    found = [f"materialized: {name}" for name in
             replay_differences(replay(trace.records, trace.meta), reference)]
    found += [f"streamed: {name}" for name in
              replay_differences(replay(_iter_fields(path), read_meta(path)), reference)]
    return found


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Compare every trace file named in ``argv``; the exit status."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m tests.obs.replay_reference TRACE.jsonl...", file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        found = compare_file(path)
        if found:
            failed += 1
            print(f"{path}: replay differs from the reference on " + ", ".join(found))
    print(f"{len(paths) - failed} of {len(paths)} traces replay as the reference")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
