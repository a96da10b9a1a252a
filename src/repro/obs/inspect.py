"""Inspect exported traces: summaries, timelines, invariant checks.

The analysis engine behind the ``repro trace <file>`` subcommand.
Everything operates on plain sequences of
:class:`~repro.sim.trace.TraceRecord`, so the same functions work on
a list of records (:func:`repro.obs.trace_io.read_trace`) and on a
JSONL file streamed through :func:`repro.obs.trace_io.iter_trace`.

Three views:

- :func:`summarize` — whole-trace shape: record/transition counts per
  kind, the time span, distinct jobs seen.
- :func:`job_timeline` — one job's records in time order (what the
  scheduler did to it, attempt by attempt).
- :func:`check_trace` — invariant spot-checks *on the export itself*:
  time ordering, per-job lifecycle legality (no start before arrival,
  no double start, finish only while running), and — when the header
  names a machine size — that traced allocations never exceed it.
  A non-empty finding list means either a corrupted trace or a
  scheduler bug; the simulator's own audits should have caught the
  latter first.

>>> from repro.sim.trace import TraceRecord
>>> records = [
...     TraceRecord(0.0, "arrive", {"job": 1, "num": 8}),
...     TraceRecord(10.0, "start", {"job": 1, "num": 8}),
...     TraceRecord(70.0, "finish", {"job": 1, "num": 8}),
... ]
>>> summary = summarize(records)
>>> summary.kind_counts["start"], summary.n_jobs, summary.span
(1, 1, 70.0)
>>> check_trace(records, machine_size=320)
[]
>>> for finding in check_trace(records[::-1]):   # reversed: all wrong
...     print(finding)
record 2: time 10 precedes 70
record 3: time 0 precedes 10
job 1: 'finish' at t=70 but job is not running
job 1: 'start' at t=10 but job is not waiting
job 1: 'arrive' at t=0 but job was already seen
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.trace import TraceRecord

#: Record kinds that begin a job's waiting phase.
_WAIT_KINDS = {"arrive", "requeue", "promote"}
#: Record kinds that end an attempt and free the job's processors.
_RELEASE_KINDS = {"finish", "job-fail"}


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate shape of one trace."""

    n_records: int
    t_min: float
    t_max: float
    kind_counts: Dict[str, int] = field(default_factory=dict)
    n_jobs: int = 0

    @property
    def span(self) -> float:
        """Traced time span (0 for empty traces)."""
        return self.t_max - self.t_min

    def render(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"{self.n_records} records over t=[{self.t_min:g}, {self.t_max:g}] "
            f"(span {self.span:g}s), {self.n_jobs} jobs",
            "transitions:",
        ]
        width = max((len(kind) for kind in self.kind_counts), default=0)
        for kind in sorted(self.kind_counts):
            lines.append(f"  {kind:<{width}}  {self.kind_counts[kind]}")
        return "\n".join(lines)


def _job_of(record: TraceRecord) -> Optional[int]:
    job = record.data.get("job")
    return int(job) if job is not None else None


def summarize(records: Iterable[TraceRecord]) -> TraceSummary:
    """Count transitions per kind and measure the traced span."""
    kind_counts: Dict[str, int] = {}
    jobs = set()
    n = 0
    t_min = float("inf")
    t_max = float("-inf")
    for record in records:
        n += 1
        kind_counts[record.kind] = kind_counts.get(record.kind, 0) + 1
        t_min = min(t_min, record.time)
        t_max = max(t_max, record.time)
        job = _job_of(record)
        if job is not None:
            jobs.add(job)
    if n == 0:
        t_min = t_max = 0.0
    return TraceSummary(
        n_records=n, t_min=t_min, t_max=t_max, kind_counts=kind_counts, n_jobs=len(jobs)
    )


def job_timeline(records: Iterable[TraceRecord], job_id: int) -> List[TraceRecord]:
    """All records touching ``job_id``, in trace order."""
    return [r for r in records if _job_of(r) == job_id]


def filter_records(
    records: Iterable[TraceRecord],
    *,
    kinds: Optional[Sequence[str]] = None,
    job_id: Optional[int] = None,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> List[TraceRecord]:
    """Records matching every given filter (None = don't filter)."""
    wanted = set(kinds) if kinds else None
    out = []
    for r in records:
        if wanted is not None and r.kind not in wanted:
            continue
        if job_id is not None and _job_of(r) != job_id:
            continue
        if t0 is not None and r.time < t0:
            continue
        if t1 is not None and r.time > t1:
            continue
        out.append(r)
    return out


@dataclass(frozen=True)
class TraceCheck:
    """Result of :func:`check_trace`: findings plus what was checked."""

    findings: List[str]
    n_records: int
    peak_occupancy: int

    @property
    def ok(self) -> bool:
        return not self.findings


def check_trace(
    records: Sequence[TraceRecord], machine_size: Optional[int] = None
) -> List[str]:
    """Spot-check trace invariants; returns human-readable findings.

    Checks (empty list = all pass):

    - record times are non-decreasing,
    - per job: ``start`` only while waiting (after ``arrive`` or
      ``requeue``), ``finish``/``job-fail`` only while running, at
      most one ``arrive``,
    - with ``machine_size``: the sum of running jobs' ``num`` never
      exceeds it (``start`` allocates; ``finish``/``job-fail``
      release),
    - elastic-policy invariants (on traces whose ``ecc`` records carry
      the post-command ``num``): every applied expand/shrink maps to a
      matching allocation delta — ``EP`` never shrinks a job, ``RP``
      never grows one, time-dimension commands (``ET``/``RT``) never
      change size, *job-origin* resource commands never apply to a
      running job (scheduler-origin records from the Malleable-*
      policies are the sanctioned exception: they resize running jobs,
      and occupancy tracking follows the new allocation), and a job
      starts/releases exactly its traced size — no job ever exceeds
      ``machine_size``, and a ``terminated-job`` outcome is followed
      by that job's ``finish`` at the same instant.
    """
    return _check(records, machine_size).findings


def _check(
    records: Sequence[TraceRecord], machine_size: Optional[int] = None
) -> TraceCheck:
    findings: List[str] = []
    previous_time: Optional[float] = None
    for index, record in enumerate(records, start=1):
        if previous_time is not None and record.time < previous_time:
            findings.append(
                f"record {index}: time {record.time:g} precedes {previous_time:g}"
            )
        previous_time = record.time

    # Per-job lifecycle state machine: absent -> waiting -> running.
    state: Dict[int, str] = {}
    # Elastic invariants: traced size per job (arrive num, updated by
    # applied ECCs), processors actually held, pending terminations.
    size: Dict[int, int] = {}
    held: Dict[int, int] = {}
    must_finish_at: Dict[int, float] = {}
    occupancy = 0
    peak = 0
    for record in records:
        job = _job_of(record)
        kind = record.kind
        time = record.time
        if job is None:
            continue
        if kind == "arrive":
            if job in state:
                findings.append(
                    f"job {job}: 'arrive' at t={time:g} but job was already seen"
                )
            state.setdefault(job, "waiting")
            if "num" in record.data:
                size[job] = int(record.data["num"])
        elif kind in _WAIT_KINDS:  # requeue / promote
            state[job] = "waiting"
        elif kind == "start":
            if state.get(job) != "waiting":
                findings.append(
                    f"job {job}: 'start' at t={time:g} but job is not waiting"
                )
            state[job] = "running"
            num = int(record.data.get("num", 0))
            if job in size and num != size[job]:
                findings.append(
                    f"job {job}: starts with {num} procs at t={time:g} but its "
                    f"traced size (arrive + applied ECCs) is {size[job]}"
                )
            held[job] = num
            occupancy += num
            peak = max(peak, occupancy)
            if machine_size is not None and occupancy > machine_size:
                findings.append(
                    f"t={time:g}: traced occupancy {occupancy} exceeds "
                    f"machine size {machine_size}"
                )
        elif kind in _RELEASE_KINDS:
            if state.get(job) != "running":
                findings.append(
                    f"job {job}: {kind!r} at t={time:g} but job is not running"
                )
            else:
                num = int(record.data.get("num", 0))
                allocated = held.pop(job, num)
                if num != allocated:
                    findings.append(
                        f"job {job}: releases {num} procs at t={time:g} "
                        f"but held {allocated}"
                    )
                occupancy -= allocated
            state[job] = "done" if kind == "finish" else "failed"
            if kind == "finish" and job in must_finish_at:
                expected = must_finish_at.pop(job)
                if time != expected:
                    findings.append(
                        f"job {job}: terminated by an ECC at t={expected:g} "
                        f"but finished at t={time:g}"
                    )
        elif kind == "cancel" and record.data.get("was") == "queued":
            state[job] = "cancelled"
        elif kind == "ecc":
            before = held.get(job)
            findings.extend(
                _check_ecc(
                    record, job, state, size, machine_size, must_finish_at, held
                )
            )
            after = held.get(job)
            if before is not None and after is not None and after != before:
                # A scheduler-initiated resize moved processors while
                # the job ran; occupancy follows the new allocation.
                occupancy += after - before
                peak = max(peak, occupancy)
                if machine_size is not None and occupancy > machine_size:
                    findings.append(
                        f"t={time:g}: traced occupancy {occupancy} exceeds "
                        f"machine size {machine_size}"
                    )
    for job, expected in sorted(must_finish_at.items()):
        findings.append(
            f"job {job}: terminated by an ECC at t={expected:g} but never finished"
        )
    return TraceCheck(findings=findings, n_records=len(records), peak_occupancy=peak)


#: ECC outcomes that actually modified the target job.
_ECC_APPLIED = {"applied-queued", "applied-running", "terminated-job"}
#: Resource (processor-dimension) vs. time-dimension command tags.
_ECC_RESOURCE = {"EP", "RP"}
_ECC_TIME = {"ET", "RT", "S"}


def _check_ecc(
    record: TraceRecord,
    job: int,
    state: Dict[int, str],
    size: Dict[int, int],
    machine_size: Optional[int],
    must_finish_at: Dict[int, float],
    held: Dict[int, int],
) -> List[str]:
    """Elastic-policy invariants for one applied ``ecc`` record.

    Skips silently when the record predates the post-command ``num``
    field (older traces) — the size-delta checks need it.

    Scheduler-initiated records (``"origin": "scheduler"``, written by
    the Malleable-* policies; docs/malleability.md) follow the same
    EP/RP direction invariants as job-origin ones, but are *allowed*
    to resize a running job — that is their entire point — so they
    update ``held`` instead of raising the fixed-once-started finding.
    """
    data = record.data
    outcome = str(data.get("outcome", ""))
    if outcome == "terminated-job":
        must_finish_at[job] = record.time
    if outcome not in _ECC_APPLIED:
        return []
    ecc_kind = str(data.get("ecc_kind", "?"))
    new_num = data.get("num")
    if new_num is None:
        # Legacy trace: the job's size is no longer known after an
        # applied resource command — stop checking it for this job.
        if ecc_kind in _ECC_RESOURCE:
            size.pop(job, None)
        return []
    new_num = int(new_num)
    findings: List[str] = []
    old_num = size.get(job)
    at = f"at t={record.time:g}"
    if old_num is not None:
        if ecc_kind == "EP" and new_num < old_num:
            findings.append(
                f"job {job}: applied EP {at} shrank size {old_num} -> {new_num}"
            )
        elif ecc_kind == "RP" and new_num > old_num:
            findings.append(
                f"job {job}: applied RP {at} grew size {old_num} -> {new_num}"
            )
        elif ecc_kind in _ECC_TIME and new_num != old_num:
            findings.append(
                f"job {job}: time-dimension {ecc_kind} {at} changed size "
                f"{old_num} -> {new_num}"
            )
    scheduler_origin = data.get("origin") == "scheduler"
    if ecc_kind in _ECC_RESOURCE and state.get(job) == "running":
        if scheduler_origin:
            # Runtime malleability: the job's allocation changes now.
            if job in held:
                held[job] = new_num
        else:
            findings.append(
                f"job {job}: resource ECC {ecc_kind} applied {at} while the "
                "job is running (sizes are fixed once started)"
            )
    if machine_size is not None and new_num > machine_size:
        findings.append(
            f"job {job}: ECC {at} grows size to {new_num}, exceeding "
            f"machine size {machine_size}"
        )
    size[job] = new_num
    return findings


# ----------------------------------------------------------------------
# CLI: ``repro trace <file>``
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``repro trace`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Filter, summarize and sanity-check exported JSONL traces "
        "(written by --trace-out; schema in docs/observability.md).",
    )
    parser.add_argument("file", help="trace file (JSONL, repro.trace/1 schema)")
    parser.add_argument(
        "--kind", nargs="+", default=None, metavar="K",
        help="only records of these kinds (e.g. start finish job-fail)",
    )
    parser.add_argument(
        "--job", type=int, default=None, metavar="ID",
        help="only records touching this job (a per-job timeline)",
    )
    parser.add_argument(
        "--since", type=float, default=None, metavar="T", help="only records with time >= T"
    )
    parser.add_argument(
        "--until", type=float, default=None, metavar="T", help="only records with time <= T"
    )
    parser.add_argument(
        "--records", action="store_true",
        help="print the (filtered) records themselves, not just the summary",
    )
    parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="print at most N records (with --records)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run invariant spot-checks; exit 1 when any fail",
    )
    parser.add_argument(
        "--no-strict", action="store_true",
        help="skip malformed record lines instead of failing",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro trace``; returns the exit code."""
    from repro.obs.trace_io import TraceReadError, read_trace

    args = build_parser().parse_args(argv)
    try:
        trace = read_trace(args.file, strict=not args.no_strict)
    except (OSError, TraceReadError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    meta = trace.meta
    if meta:
        described = ", ".join(f"{k}={meta[k]}" for k in sorted(meta))
        print(f"meta: {described}")

    records = filter_records(
        trace.records, kinds=args.kind, job_id=args.job, t0=args.since, t1=args.until
    )
    filtered = len(records) != len(trace.records)
    if filtered:
        print(f"filter matched {len(records)} of {len(trace.records)} records")

    print(summarize(records).render())

    if args.records or args.job is not None:
        shown = records if args.limit is None else records[: args.limit]
        for record in shown:
            print(repr(record))
        if len(shown) < len(records):
            print(f"... {len(records) - len(shown)} more (raise --limit)")

    if args.check:
        if filtered:
            print("note: invariants are checked on the full trace, not the filter")
        machine_size = meta.get("machine_size")
        result = _check(
            trace.records, int(machine_size) if machine_size is not None else None
        )
        if result.ok:
            print(
                f"checks: OK ({result.n_records} records, "
                f"peak traced occupancy {result.peak_occupancy})"
            )
        else:
            for finding in result.findings:
                print(f"CHECK FAILED: {finding}")
            return 1
    return 0


__all__ = [
    "TraceCheck",
    "TraceSummary",
    "check_trace",
    "filter_records",
    "job_timeline",
    "main",
    "summarize",
]
