"""Workload validation.

External SWF/CWF traces are messy; this module checks a workload for
everything the simulation runner would reject (hard errors, the one
set the runner itself raises on) plus conditions that usually signal a
broken trace (warnings), returning a structured issue list instead of
failing on the first problem.  Used by ``repro-sim --validate`` before
simulating user-supplied files.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List

from repro.workload.generator import Workload


class Severity(Enum):
    """Issue severities."""

    ERROR = "error"  # the runner would reject or mis-simulate this
    WARNING = "warning"  # suspicious but simulatable

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Issue:
    """One validation finding."""

    severity: Severity
    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity.value}] {self.code}: {self.message}"


def workload_errors(workload: Workload) -> Iterator[Issue]:
    """The hard errors in ``workload``: everything the runner rejects.

    Lazy, so :class:`~repro.experiments.runner.SimulationRunner` stops
    at the first one: requests the machine can never satisfy, then
    duplicate ids, then commands aimed at unknown jobs or issued before
    their job's submission.
    """
    size, granularity = workload.machine_size, workload.granularity
    for job in workload.jobs:
        if job.num > size:
            yield Issue(
                Severity.ERROR,
                "job-too-large",
                f"job {job.job_id} requests {job.num} processors, which "
                f"exceeds machine size {size}",
            )
        if job.num % granularity:
            yield Issue(
                Severity.ERROR,
                "granularity",
                f"job {job.job_id} requests {job.num} processors, not a "
                f"multiple of the allocation granularity {granularity}",
            )
    by_id = {job.job_id: job for job in workload.jobs}
    if len(by_id) != len(workload.jobs):
        for job_id, count in Counter(job.job_id for job in workload.jobs).items():
            if count > 1:
                yield Issue(
                    Severity.ERROR,
                    "duplicate-id",
                    f"duplicate job ids in workload: job {job_id} appears "
                    f"{count} times",
                )
    for ecc in workload.eccs:
        target = by_id.get(ecc.job_id)
        if target is None:
            yield Issue(
                Severity.ERROR,
                "dangling-ecc",
                f"ECC references unknown job {ecc.job_id}",
            )
        elif ecc.issue_time < target.submit:
            # ECCs modify "a previously submitted job" (§III-C): a
            # command cannot precede its job's submission.
            yield Issue(
                Severity.ERROR,
                "ecc-before-submit",
                f"ECC for job {ecc.job_id} issued at t={ecc.issue_time} "
                f"before the job's submission at t={target.submit}",
            )


def validate_workload(workload: Workload) -> List[Issue]:
    """Check a workload; returns all issues found (empty = clean).

    The errors of :func:`workload_errors` first, then the warnings.
    """
    issues = list(workload_errors(workload))
    for job in workload.jobs:
        if job.actual is not None and job.actual > job.estimate:
            issues.append(
                Issue(
                    Severity.WARNING,
                    "under-estimate",
                    f"job {job.job_id} actual {job.actual:g}s exceeds estimate "
                    f"{job.estimate:g}s (will be killed at kill-by)",
                )
            )
        if job.estimate > 7 * 86400:
            issues.append(
                Issue(
                    Severity.WARNING,
                    "huge-runtime",
                    f"job {job.job_id} estimate {job.estimate:g}s exceeds a week",
                )
            )
    by_id = {job.job_id: job for job in workload.jobs}
    for ecc in workload.eccs:
        target = by_id.get(ecc.job_id)
        if target is not None and ecc.kind.is_time and ecc.amount > 100 * target.estimate:
            issues.append(
                Issue(
                    Severity.WARNING,
                    "ecc-huge-amount",
                    f"ECC for job {ecc.job_id} amount {ecc.amount:g}s is "
                    f">100x the job's estimate",
                )
            )
    if workload.jobs and workload.offered_load() > 3.0:
        issues.append(
            Issue(
                Severity.WARNING,
                "extreme-load",
                f"offered load {workload.offered_load():.2f} > 3: queues will "
                "grow without bound for most of the run",
            )
        )
    return issues


def has_errors(issues: List[Issue]) -> bool:
    """Whether any issue is a hard error."""
    return any(issue.severity is Severity.ERROR for issue in issues)


def format_issues(issues: List[Issue]) -> str:
    """Human-readable report (a clean message when empty)."""
    if not issues:
        return "workload OK: no issues found"
    lines = [f"{len(issues)} issue(s) found:"]
    for issue in issues:
        lines.append(f"  [{issue.severity.value:7s}] {issue.code}: {issue.message}")
    return "\n".join(lines)


__all__ = [
    "Issue",
    "Severity",
    "format_issues",
    "has_errors",
    "validate_workload",
    "workload_errors",
]
