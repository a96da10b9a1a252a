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
  They are the findings of :func:`repro.obs.analytics.replay`, so the
  trace oracle enforces the same checks on every trace it replays.
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

from repro.obs.analytics import _no_job, replay
from repro.sim.trace import TraceRecord


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


def _job_of(n: int, record: TraceRecord) -> Optional[int]:
    """Record ``n``'s job id, None when it names none.

    Raises:
        TraceReadError: when its ``job`` is not an integer, as
            :func:`~repro.obs.analytics.replay` does.
    """
    job = record.data.get("job")
    if job is None:
        return None
    try:
        return int(job)
    except (TypeError, ValueError):
        raise _no_job(n, record.kind, "<records>") from None


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
        job = _job_of(n, record)
        if job is not None:
            jobs.add(job)
    if n == 0:
        t_min = t_max = 0.0
    return TraceSummary(
        n_records=n, t_min=t_min, t_max=t_max, kind_counts=kind_counts, n_jobs=len(jobs)
    )


def job_timeline(records: Iterable[TraceRecord], job_id: int) -> List[TraceRecord]:
    """All records touching ``job_id``, in trace order."""
    return [r for n, r in enumerate(records, 1) if _job_of(n, r) == job_id]


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
    for n, r in enumerate(records, 1):
        if wanted is not None and r.kind not in wanted:
            continue
        if job_id is not None and _job_of(n, r) != job_id:
            continue
        if t0 is not None and r.time < t0:
            continue
        if t1 is not None and r.time > t1:
            continue
        out.append(r)
    return out


def check_trace(
    records: Sequence[TraceRecord], machine_size: Optional[int] = None
) -> List[str]:
    """Spot-check trace invariants; returns human-readable findings.

    The findings of :func:`repro.obs.analytics.replay` (empty = all
    pass), which lists the checks; ``machine_size`` enables the
    capacity checks.  A missing or non-integer ``job`` raises its
    :class:`~repro.obs.trace_io.TraceReadError`.
    """
    return replay(records, {"machine_size": machine_size}).findings


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
        # Rejects a record without an integer job before any view reads it.
        result = replay(trace.records, trace.meta, source=args.file)
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
        if result.findings:
            for finding in result.findings:
                print(f"CHECK FAILED: {finding}")
            return 1
        print(
            f"checks: OK ({result.n_trace_records} records, "
            f"peak traced occupancy {result.peak_level})"
        )
    return 0


__all__ = [
    "TraceSummary",
    "check_trace",
    "filter_records",
    "job_timeline",
    "main",
    "summarize",
]
