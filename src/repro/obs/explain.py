"""``repro explain`` — why did this job wait?

The write side of decision provenance lives in the runner
(``decisions=True`` / ``--decisions``): whenever a policy passes over
a queued job, a deduplicated ``decision`` record with a reason code
from :data:`repro.core.base.DECISION_REASONS` lands in the
``repro.trace/1`` stream.  This module is the read side: it folds a
job's lifecycle records and its decision records into one annotated
timeline, so "why did job 17 start 4 hours late" is one command
instead of a trace spelunking session::

    repro explain trace.jsonl --job 17

Works on any trace; without decision records the timeline simply has
no pass-over lines (and says so).  The job's records are those
``repro trace --job N`` lists.  See docs/observability.md for the
reason-code catalog and the exit codes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, List, Optional, Sequence

from repro.obs.analytics import replay_file, trace_cli
from repro.obs.inspect import job_timeline
from repro.sim.trace import TraceRecord

#: Human phrasing per reason code (repro.core.base.DECISION_REASONS).
_REASON_TEXT = {
    "insufficient-free-procs": "not enough free processors",
    "reservation-block": "would delay the head job's reservation",
    "dp-excluded": "DP packing favoured other jobs this cycle",
    "freeze-window": "held back by a dedicated-job freeze window",
    "malleable-shrink-infeasible": "shrinking running jobs could not free enough",
    "fault-backoff": "crashed; waiting out the retry backoff",
}


def _describe(record: TraceRecord) -> str:
    """One human line for a job-lifecycle trace record."""
    kind = record.kind
    data = record.data
    if kind == "arrive":
        extra = ""
        if data.get("requested_start") is not None:
            extra = f", requested start t={data['requested_start']:g}"
        return f"arrives ({data.get('job_kind', 'batch')}, num={data.get('num')}{extra})"
    if kind == "decision":
        reason = str(data.get("reason", "?"))
        return f"passed over: {_REASON_TEXT.get(reason, reason)} [{reason}]"
    if kind == "start":
        return f"starts on {data.get('num')} processors"
    if kind == "finish":
        return "finishes"
    if kind == "promote":
        return f"promoted to the batch head (scount={data.get('scount')})"
    if kind == "cancel":
        return f"cancelled while {data.get('was', '?')}"
    if kind == "ecc" or kind == "ecc-dropped":
        origin = " [scheduler-initiated]" if data.get("origin") == "scheduler" else ""
        outcome = f" -> {data['outcome']}" if "outcome" in data else " dropped"
        amount = data.get("amount")
        return (
            f"ECC {data.get('ecc_kind')}"
            + (f" amount={amount:g}" if isinstance(amount, (int, float)) else "")
            + outcome
            + origin
        )
    if kind == "job-fail":
        return (
            f"attempt {data.get('attempt')} fails ({data.get('reason')}, "
            f"lost {data.get('lost', 0):g} proc-s)"
        )
    if kind == "requeue":
        return f"re-enters the queue (attempt {data.get('attempt')})"
    if kind == "job-failed-permanently":
        return f"fails permanently after {data.get('attempts')} attempts"
    # Unknown/future kinds: render the payload verbatim.
    payload = ", ".join(f"{k}={v}" for k, v in sorted(data.items()) if k != "job")
    return f"{kind} ({payload})" if payload else kind


def explain_job(records: Iterable[TraceRecord], job_id: int) -> str:
    """Render one job's annotated timeline from trace records.

    Returns a multi-line string: the per-event timeline followed by a
    summary (wait before first start, attempts, distinct pass-over
    reasons).  Raises ``ValueError`` when the trace never mentions the
    job.
    """
    everything = list(records)
    mine = job_timeline(everything, job_id)
    if not mine:
        raise ValueError(f"trace has no records for job {job_id}")
    trace_has_decisions = any(r.kind == "decision" for r in everything)
    arrive: Optional[float] = None
    first_start: Optional[float] = None
    starts = 0
    reasons: List[str] = []
    lines = [f"job {job_id}:"]
    for record in mine:
        lines.append(f"  t={record.time:<12g} {_describe(record)}")
        if record.kind == "arrive":
            arrive = record.time
        elif record.kind == "start":
            starts += 1
            if first_start is None:
                first_start = record.time
        elif record.kind == "decision":
            reason = str(record.data.get("reason", "?"))
            if reason not in reasons:
                reasons.append(reason)
    summary = []
    if arrive is not None and first_start is not None:
        summary.append(f"waited {first_start - arrive:g}s before first start")
    if starts > 1:
        summary.append(f"{starts} start attempts")
    if reasons:
        summary.append(f"passed over for: {', '.join(reasons)}")
    elif trace_has_decisions:
        summary.append("never passed over")
    else:
        summary.append(
            "no decision records (run with --decisions for pass-over provenance)"
        )
    if summary:
        lines.append("  -- " + "; ".join(s for s in summary if s))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description=(
            "Render one job's annotated timeline (lifecycle + pass-over "
            "decision provenance) from a repro.trace/1 file."
        ),
    )
    parser.add_argument("trace", help="trace file (repro.trace/1 JSONL)")
    parser.add_argument(
        "--job", type=int, required=True, metavar="N", help="job id to explain"
    )
    return parser


@trace_cli
def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    records: List[TraceRecord] = []
    replay_file(args.trace, records=records)
    try:
        print(explain_job(records, args.job))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


__all__ = ["build_parser", "explain_job", "main"]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
