"""Inspect exported traces: summaries, timelines, record filters.

The analysis engine behind the ``repro trace <file>`` subcommand.
Every view works on :class:`~repro.sim.trace.TraceRecord` sequences
that :func:`repro.obs.analytics.replay` has accepted: each view
replays its input first, so a record whose ``job`` is not an integer
raises the replay's :class:`~repro.obs.trace_io.TraceReadError`, and
a job id means what it means to the replay.  The CLI reads its file
through :func:`repro.obs.analytics.replay_file`, whose findings are
the ``--check`` invariant spot-checks, and views the records that one
replay accepted.

Three views:

- :func:`summarize` — whole-trace shape: record/transition counts per
  kind, the time span, distinct jobs seen.
- :func:`job_timeline` — one job's records in time order (what the
  scheduler did to it, attempt by attempt).
- :func:`filter_records` — the records matching kind, job and time
  filters.

>>> from repro.sim.trace import TraceRecord
>>> records = [
...     TraceRecord(0.0, "arrive", {"job": 1, "num": 8}),
...     TraceRecord(10.0, "start", {"job": "1", "num": 8}),
...     TraceRecord(70.0, "finish", {"job": 1, "num": 8}),
... ]
>>> summary = summarize(records)
>>> summary.kind_counts["start"], summary.n_jobs, summary.span
(1, 1, 70.0)
>>> [record.kind for record in job_timeline(records, 1)]
['arrive', 'start', 'finish']
"""

from __future__ import annotations

import argparse
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.analytics import replay, replay_file, trace_cli
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


def _accepted(records: Iterable[TraceRecord]) -> List[TraceRecord]:
    """``records`` as a list, once :func:`replay` has accepted them
    (it raises :class:`TraceReadError` on a non-integer ``job``)."""
    records = list(records)
    replay(records)
    return records


def _job(record: TraceRecord) -> Optional[int]:
    """The job an accepted record names, None when it names none."""
    job = record.data.get("job")
    return None if job is None else int(job)


def summarize(records: Iterable[TraceRecord]) -> TraceSummary:
    """Count transitions per kind and measure the traced span."""
    return _summarize(_accepted(records))


def _summarize(records: List[TraceRecord]) -> TraceSummary:
    """:func:`summarize` of records the replay has already accepted."""
    times = [record.time for record in records]
    jobs = {_job(record) for record in records} - {None}
    return TraceSummary(
        n_records=len(records),
        t_min=min(times, default=0.0),
        t_max=max(times, default=0.0),
        kind_counts=dict(Counter(record.kind for record in records)),
        n_jobs=len(jobs),
    )


def job_timeline(records: Iterable[TraceRecord], job_id: int) -> List[TraceRecord]:
    """All records touching ``job_id``, in trace order."""
    return filter_records(records, job_id=job_id)


def filter_records(
    records: Iterable[TraceRecord],
    *,
    kinds: Optional[Sequence[str]] = None,
    job_id: Optional[int] = None,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> List[TraceRecord]:
    """Records matching every given filter (None = don't filter)."""
    return _filter(_accepted(records), kinds=kinds, job_id=job_id, t0=t0, t1=t1)


def _filter(
    records: List[TraceRecord],
    *,
    kinds: Optional[Sequence[str]],
    job_id: Optional[int],
    t0: Optional[float],
    t1: Optional[float],
) -> List[TraceRecord]:
    """:func:`filter_records` of records the replay has already accepted."""
    wanted = set(kinds) if kinds else None
    return [
        r for r in records
        if (wanted is None or r.kind in wanted)
        and (job_id is None or _job(r) == job_id)
        and (t0 is None or r.time >= t0)
        and (t1 is None or r.time <= t1)
    ]


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


@trace_cli
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro trace``; returns the exit code."""
    args = build_parser().parse_args(argv)
    records: List[TraceRecord] = []
    result = replay_file(args.file, strict=not args.no_strict, records=records)

    meta = result.meta
    if meta:
        described = ", ".join(f"{k}={meta[k]}" for k in sorted(meta))
        print(f"meta: {described}")

    # replay_file has accepted the records: filter and summarize them
    # without replaying them again.
    matched = _filter(
        records, kinds=args.kind, job_id=args.job, t0=args.since, t1=args.until
    )
    filtered = len(matched) != len(records)
    if filtered:
        print(f"filter matched {len(matched)} of {len(records)} records")

    print(_summarize(matched).render())

    if args.records or args.job is not None:
        shown = matched if args.limit is None else matched[: args.limit]
        for record in shown:
            print(repr(record))
        if len(shown) < len(matched):
            print(f"... {len(matched) - len(shown)} more (raise --limit)")

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
    "filter_records",
    "job_timeline",
    "main",
    "summarize",
]
