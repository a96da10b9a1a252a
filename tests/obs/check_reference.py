"""The two-pass invariant checker: the reference for ``replay``'s findings.

:func:`repro.obs.analytics.replay` checks a trace's invariants in the
same walk that rebuilds the run, into ``TraceReplay.findings``.  This
is the separate checker it replaced, kept
as it was: one pass for time order, then a per-job lifecycle state
machine with its own occupancy count and ECC size tracking.  Both must
report the same findings, in the same order, and the same peak
occupancy.

Run as a module to hold every given trace file to the reference::

    python -m tests.obs.check_reference ci-*/*.jsonl

Exit status 0 when every file agrees, 1 when any differs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.analytics import replay
from repro.obs.trace_io import read_trace
from repro.sim.trace import TraceRecord

#: Record kinds that begin a job's waiting phase.
_WAIT_KINDS = {"arrive", "requeue", "promote"}
#: Record kinds that end an attempt and free the job's processors.
_RELEASE_KINDS = {"finish", "job-fail"}


def _job_of(record: TraceRecord) -> Optional[int]:
    job = record.data.get("job")
    return int(job) if job is not None else None


@dataclass(frozen=True)
class TraceCheck:
    """Result of :func:`_check`: findings plus what was checked."""

    findings: List[str]
    n_records: int
    peak_occupancy: int

    @property
    def ok(self) -> bool:
        return not self.findings


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


def check_differences(records: Sequence[TraceRecord], meta: Dict) -> List[str]:
    """How ``replay``'s checks differ from the reference (empty = equal)."""
    machine_size = meta.get("machine_size")
    reference = _check(records, int(machine_size) if machine_size is not None else None)
    result = replay(records, meta)
    found = []
    if result.findings != reference.findings:
        found.append(f"findings {result.findings!r} != {reference.findings!r}")
    if result.peak_level != reference.peak_occupancy:
        found.append(f"peak {result.peak_level} != {reference.peak_occupancy}")
    return found


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Check every trace file named in ``argv``; the exit status."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m tests.obs.check_reference TRACE.jsonl...", file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        trace = read_trace(path)
        found = check_differences(trace.records, trace.meta)
        if found:
            failed += 1
            print(f"{path}: replay's checks differ from the reference: " + "; ".join(found))
    print(f"{len(paths) - failed} of {len(paths)} traces check as the reference")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
