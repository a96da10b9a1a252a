"""Observability: trace export, run telemetry, sweep progress.

The simulation and experiment layers compute plenty of diagnostic
signal — every state transition of a traced run is a trace record
written straight to its :class:`~repro.obs.trace_io.TraceWriter`, the
run cache counts hits and misses, schedulers burn measurable work in DP tables and backfill
scans — but before this package none of it left the process.
``repro.obs`` is the layer that gets it out, without ever feeding
back: **observability must not change scheduling decisions**, and a
traced run produces `RunMetrics` identical to an untraced one (the
determinism tests in ``tests/obs/`` enforce both).

Eight modules:

- :mod:`repro.obs.trace_io` — a versioned JSONL schema for
  :class:`~repro.sim.trace.TraceRecord` with a streaming writer and
  reader; round-trips are lossless.
- :mod:`repro.obs.telemetry` — a per-run counters/timers
  registry attached to :class:`~repro.metrics.records.RunMetrics`;
  hot-path hooks cost one global load when inactive.
- :mod:`repro.obs.spans` — hierarchical phase spans over the engine
  loop and scheduler hot paths: per-phase self/cumulative wall time
  folded into telemetry, a Chrome trace-event export
  (Perfetto/chrome://tracing), and the ``repro profile`` hot-spot
  table.  Zero-cost when no recorder is active.
- :mod:`repro.obs.explain` — decision provenance: renders the
  ``decision`` records (why a queued job was passed over) plus the
  job's lifecycle into the ``repro explain --job N`` timeline.
- :mod:`repro.obs.progress` — per-run progress events (done/total,
  cache hits vs. cold runs, ETA) emitted by the parallel executor,
  always from the parent process, a terminal reporter, and the
  end-of-sweep summary collector.
- :mod:`repro.obs.inspect` — filtering/summarizing exported traces:
  per-job timelines, transition counts; the engine behind the
  ``repro trace`` subcommand.
- :mod:`repro.obs.analytics` — the read side of tracing: replays a
  trace into timelines while checking its invariants (lifecycle,
  occupancy, elastic-policy size deltas), recomputes the paper's §V
  metrics from the event stream alone, and cross-validates them
  against the simulator's :class:`~repro.metrics.records.RunMetrics`
  (the correctness oracle; ``REPRO_TRACE_VALIDATE=1`` arms it per
  run).
- :mod:`repro.obs.report` — ``repro report``: one or more traces (or
  a sweep directory) rendered into a self-contained Markdown/HTML
  report with comparison tables and charts.

Every view of a trace is built from one
:func:`~repro.obs.analytics.replay`, on a file opened by
:func:`~repro.obs.analytics.replay_file`.

See docs/observability.md for the trace schema, the counter catalog,
the oracle's semantics and overhead numbers.
"""

from repro.obs.analytics import (
    ECCEpisode,
    TraceMetrics,
    TraceOracleError,
    TraceReplay,
    assert_consistent,
    cross_validate,
    recompute_metrics,
    replay,
    replay_file,
    validate_trace_file,
)

from repro.obs.inspect import (
    TraceSummary,
    job_timeline,
    summarize,
)
from repro.obs.progress import (
    ProgressEvent,
    ProgressReporter,
    ProgressSummary,
    ProgressTracker,
    format_duration,
)
from repro.obs.explain import explain_job
from repro.obs.spans import (
    PHASES,
    SpanRecorder,
    phase_table,
)
from repro.obs.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    activated,
    bump,
    current,
    format_snapshot,
)
from repro.obs.trace_io import (
    TRACE_SCHEMA,
    TraceFile,
    TraceReadError,
    TraceWriter,
    iter_trace,
    read_trace,
    write_trace,
)

def __getattr__(name: str):
    # repro.obs.report pulls in repro.experiments, whose core imports
    # reach back into repro.obs.telemetry — an eager import here would
    # cycle.  PEP 562 lazy loading breaks the loop without changing
    # the public surface.
    if name == "build_report":
        from repro.obs.report import build_report

        return build_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ECCEpisode",
    "PHASES",
    "ProgressEvent",
    "ProgressReporter",
    "ProgressSummary",
    "ProgressTracker",
    "SpanRecorder",
    "TRACE_SCHEMA",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceFile",
    "TraceMetrics",
    "TraceOracleError",
    "TraceReadError",
    "TraceReplay",
    "TraceSummary",
    "TraceWriter",
    "activated",
    "assert_consistent",
    "build_report",
    "bump",
    "cross_validate",
    "current",
    "explain_job",
    "format_duration",
    "format_snapshot",
    "iter_trace",
    "job_timeline",
    "phase_table",
    "read_trace",
    "recompute_metrics",
    "replay",
    "replay_file",
    "summarize",
    "validate_trace_file",
    "write_trace",
]
