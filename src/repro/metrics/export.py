"""Exporting results: CSV and JSON for records, runs and sweeps.

Downstream analysis (pandas, R, gnuplot) wants flat files, not Python
objects.  Everything here is stdlib-only (``csv``/``json``) and
streams through writers, so exports scale to large sweeps.

Telemetry (docs/observability.md): runs that carry a
:class:`~repro.obs.telemetry.TelemetrySnapshot` can export it — JSON
always includes it, CSV adds ``tm_``-prefixed columns on request
(``telemetry=True``), keeping the default schema stable for existing
consumers.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, TextIO, Union

from repro.metrics.records import JobRecord, RunMetrics

PathOrFile = Union[str, Path, TextIO]

#: Prefix of opt-in telemetry columns in per-run CSVs.
TELEMETRY_PREFIX = "tm_"

#: Column order of the per-job CSV schema.
JOB_RECORD_FIELDS = (
    "job_id",
    "kind",
    "num",
    "submit",
    "start",
    "finish",
    "wait",
    "runtime",
    "requested_start",
    "dedicated_delay",
    "eccs_applied",
    "killed",
)

#: Column order of the per-run CSV schema.
RUN_FIELDS = (
    "algorithm",
    "machine_size",
    "n_jobs",
    "offered_load",
    "utilization",
    "mean_wait",
    "mean_runtime",
    "slowdown",
    "makespan",
)


def _open(target: PathOrFile, write_fn) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_fn(fh)
    else:
        write_fn(target)


def _record_row(record: JobRecord) -> dict:
    return {
        "job_id": record.job_id,
        "kind": record.kind.value,
        "num": record.num,
        "submit": record.submit,
        "start": record.start,
        "finish": record.finish,
        "wait": record.wait,
        "runtime": record.runtime,
        "requested_start": (
            "" if record.requested_start is None else record.requested_start
        ),
        "dedicated_delay": (
            "" if record.dedicated_delay is None else record.dedicated_delay
        ),
        "eccs_applied": record.eccs_applied,
        "killed": record.killed,
    }


def records_to_csv(records: Iterable[JobRecord], target: PathOrFile) -> None:
    """Write per-job completion records as CSV."""

    def write(fh: TextIO) -> None:
        writer = csv.DictWriter(fh, fieldnames=JOB_RECORD_FIELDS)
        writer.writeheader()
        for record in records:
            writer.writerow(_record_row(record))

    _open(target, write)


def _run_row(metrics: RunMetrics) -> dict:
    return {
        "algorithm": metrics.algorithm,
        "machine_size": metrics.machine_size,
        "n_jobs": metrics.n_jobs,
        "offered_load": metrics.offered_load,
        "utilization": metrics.utilization,
        "mean_wait": metrics.mean_wait,
        "mean_runtime": metrics.mean_runtime,
        "slowdown": metrics.slowdown,
        "makespan": metrics.makespan,
    }


def _telemetry_columns(metrics: RunMetrics) -> Dict[str, float]:
    """``tm_``-prefixed flat telemetry columns (empty when untracked)."""
    snapshot = metrics.telemetry
    if snapshot is None:
        return {}
    columns = {
        TELEMETRY_PREFIX + name: value
        for name, value in snapshot.as_columns().items()
    }
    if metrics.queue is not None:
        # The exact peak from the run's QueueTracker.
        columns[f"{TELEMETRY_PREFIX}queue_depth_peak"] = metrics.queue.max_queue_length
    return columns


def _telemetry_fieldnames(rows: Sequence[Dict[str, float]]) -> List[str]:
    """Sorted union of telemetry columns across all exported runs."""
    names = set()
    for row in rows:
        names.update(row)
    return sorted(names)


def runs_to_csv(
    runs: Iterable[RunMetrics], target: PathOrFile, *, telemetry: bool = False
) -> None:
    """Write run aggregates (one row per run) as CSV.

    ``telemetry=True`` appends ``tm_``-prefixed counter/timer columns
    (docs/observability.md); runs without telemetry leave them blank.
    """
    if not telemetry:

        def write(fh: TextIO) -> None:
            writer = csv.DictWriter(fh, fieldnames=RUN_FIELDS)
            writer.writeheader()
            for run in runs:
                writer.writerow(_run_row(run))

        _open(target, write)
        return

    runs = list(runs)
    extra_rows = [_telemetry_columns(run) for run in runs]
    extra_fields = _telemetry_fieldnames(extra_rows)

    def write_telemetry(fh: TextIO) -> None:
        writer = csv.DictWriter(
            fh, fieldnames=(*RUN_FIELDS, *extra_fields), restval=""
        )
        writer.writeheader()
        for run, extra in zip(runs, extra_rows):
            writer.writerow({**_run_row(run), **extra})

    _open(target, write_telemetry)


def sweep_to_csv(sweep, target: PathOrFile, *, telemetry: bool = False) -> None:
    """Write a :class:`~repro.experiments.sweep.SweepResult` as long-form CSV.

    Columns: sweep label, sweep value, algorithm, then the run fields —
    one row per (sweep point, algorithm).  ``telemetry=True`` appends
    ``tm_``-prefixed columns as in :func:`runs_to_csv`.
    """
    all_runs = [run for runs in sweep.series.values() for run in runs]
    extra_fields: List[str] = []
    if telemetry:
        extra_fields = _telemetry_fieldnames(
            [_telemetry_columns(run) for run in all_runs]
        )

    def write(fh: TextIO) -> None:
        fieldnames = (sweep.sweep_label, *RUN_FIELDS, *extra_fields)
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for algorithm, runs in sweep.series.items():
            for value, run in zip(sweep.sweep_values, runs):
                row = _run_row(run)
                row[sweep.sweep_label] = value
                if telemetry:
                    row.update(_telemetry_columns(run))
                writer.writerow(row)

    _open(target, write)


def run_to_json(metrics: RunMetrics, target: PathOrFile, indent: int = 2) -> None:
    """Write one run (aggregates + every job record) as JSON."""
    payload = {
        **_run_row(metrics),
        "ecc_stats": metrics.ecc_stats,
        "dedicated_on_time_rate": metrics.dedicated_on_time_rate,
        "mean_dedicated_delay": metrics.mean_dedicated_delay,
        "records": [
            {k: (None if v == "" else v) for k, v in _record_row(r).items()}
            for r in metrics.records
        ],
    }
    if metrics.telemetry is not None:
        payload["telemetry"] = {
            "counters": dict(metrics.telemetry.counters),
            "timers": dict(metrics.telemetry.timers),
        }

    def write(fh: TextIO) -> None:
        json.dump(payload, fh, indent=indent)
        fh.write("\n")

    _open(target, write)


__all__ = [
    "JOB_RECORD_FIELDS",
    "RUN_FIELDS",
    "TELEMETRY_PREFIX",
    "records_to_csv",
    "run_to_json",
    "runs_to_csv",
    "sweep_to_csv",
]
