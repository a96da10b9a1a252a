"""Self-contained run reports from exported traces: ``repro report``.

Turns one or more ``repro.trace/1`` files (or a sweep directory of
them) into a single Markdown or HTML document: a cross-trace
comparison table, per-trace §V metrics recomputed by the
:mod:`~repro.obs.analytics` replay, invariant check results, ECC
episode counts, and charts.  Everything is built from pieces the repo
already has — :func:`repro.metrics.report.format_table` for tables,
:func:`repro.metrics.timeline.render_timeline` /
:func:`~repro.metrics.timeline.occupancy_sparkline` for occupancy,
:func:`repro.experiments.ascii_plot.ascii_plot` for queue-depth
curves — so the report and the benchmark harness can never drift
apart.  The HTML flavour embeds the same text blocks plus inline SVG
step charts; it references no external assets, so the single output
file is the whole artifact (CI uploads it as-is).

Typical use::

    repro sim --algorithms EASY LOS --trace-out runs/run.jsonl
    repro report runs/ -o report.md
    repro report runs/run.EASY.jsonl runs/run.LOS.jsonl --html -o report.html
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from html import escape
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.ascii_plot import ascii_plot
from repro.metrics.report import format_table
from repro.metrics.timeline import occupancy_sparkline, render_timeline
from repro.obs.analytics import (
    TraceMetrics, TraceReplay, recompute_metrics, replay_file, trace_cli,
)
from repro.obs.trace_io import TraceReadError

#: Render per-job Gantt rows only for runs at most this large; bigger
#: runs get the sparkline alone (a 5000-row Gantt helps nobody).
TIMELINE_JOB_LIMIT = 60

#: Columns of the cross-trace comparison table, in order.
COMPARISON_COLUMNS = (
    "n_jobs",
    "utilization",
    "mean_wait",
    "slowdown",
    "bounded_slowdown",
    "makespan",
)


@dataclass(frozen=True)
class TraceSection:
    """One analyzed trace: everything a report section needs."""

    label: str
    path: str
    result: TraceReplay
    metrics: TraceMetrics

    @property
    def ok(self) -> bool:
        """Whether the invariant spot-checks all passed."""
        return not self.result.findings


def collect_traces(paths: Sequence[str]) -> List[str]:
    """Expand the CLI inputs into a sorted list of trace files.

    Directories contribute every ``*.jsonl`` inside them (a sweep
    directory); plain paths pass through.  Raises ``FileNotFoundError``
    for missing inputs, :class:`TraceReadError` for a directory without
    traces and ``ValueError`` when no path is given.
    """
    files: List[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(str(p) for p in path.glob("*.jsonl"))
            if not found:
                raise TraceReadError("no *.jsonl traces in directory", source=raw)
            files.extend(found)
        elif path.exists():
            files.append(str(path))
        else:
            raise FileNotFoundError(f"no such trace: {raw!r}")
    if not files:
        raise ValueError("no trace files given")
    return files


def analyze_trace(path: str) -> TraceSection:
    """Replay (spot-checking its invariants) and recompute one trace file."""
    result = replay_file(path)
    label = str(result.meta.get("algorithm") or Path(path).stem)
    return TraceSection(
        label=label, path=path, result=result, metrics=recompute_metrics(result)
    )


def _unique_labels(sections: Sequence[TraceSection]) -> List[TraceSection]:
    """Disambiguate duplicate labels by appending the file stem."""
    counts: Dict[str, int] = {}
    for section in sections:
        counts[section.label] = counts.get(section.label, 0) + 1
    out = []
    for section in sections:
        if counts[section.label] > 1:
            section = replace(section, label=f"{section.label} ({Path(section.path).stem})")
        out.append(section)
    return out


def comparison_table(sections: Sequence[TraceSection]) -> str:
    """The cross-trace table (one row per trace), monospace."""
    headers = ["trace"] + list(COMPARISON_COLUMNS)
    rows = []
    for section in sections:
        row = section.metrics.as_row()
        rows.append([section.label] + [row[c] for c in COMPARISON_COLUMNS])
    return format_table(headers, rows)


def _ecc_summary(section: TraceSection) -> str:
    """One line describing the trace's elastic activity."""
    episodes = section.result.ecc_episodes
    if not episodes:
        return "no elastic (ECC) activity"
    applied = sum(1 for e in episodes if e.applied)
    kinds: Dict[str, int] = {}
    for episode in episodes:
        kinds[episode.kind] = kinds.get(episode.kind, 0) + 1
    shape = ", ".join(f"{k}={kinds[k]}" for k in sorted(kinds))
    scheduler = sum(1 for e in episodes if e.origin == "scheduler")
    by_origin = f"; {scheduler} scheduler-initiated" if scheduler else ""
    return f"{len(episodes)} ECC episodes ({applied} applied; {shape}{by_origin})"


def _queue_depth_plot(section: TraceSection, *, width: int = 64) -> Optional[str]:
    """Queue depth over time as an ASCII chart (None when flat-empty)."""
    points = section.result.queue_depth
    if len(points) < 2:
        return None
    times = [t for t, _ in points]
    depths = [float(d) for _, d in points]
    return ascii_plot(
        times,
        {"queue depth": depths},
        width=width,
        height=10,
        title=f"queue depth vs time — {section.label}",
    )


def _metrics_table(section: TraceSection) -> str:
    rows = section.metrics.as_row().items()
    return format_table(["metric", "value"], [[k, v] for k, v in rows])


def _occupancy_chart(section: TraceSection) -> Optional[str]:
    """The occupancy chart: per-job rows up to :data:`TIMELINE_JOB_LIMIT`
    jobs, then the busy row alone; it integrates the replay's step
    function, as the utilization figure does (None without jobs or M)."""
    result = section.result
    machine = result.machine_size
    n_jobs = len(result.records)
    if not n_jobs or not machine:
        return None
    window = {"t0": result.start_time, "t1": result.last_finish}
    if n_jobs <= TIMELINE_JOB_LIMIT:
        return render_timeline(
            result.records, machine, steps=result.utilization_steps,
            max_rows=TIMELINE_JOB_LIMIT, **window,
        )
    spark = occupancy_sparkline(result.utilization_steps, machine, **window)
    return f"occupancy ({n_jobs} jobs)\n|{spark}|"


def _check_line(section: TraceSection) -> str:
    if section.ok:
        return (
            f"invariants: OK ({section.result.n_trace_records} records, "
            f"peak busy {section.result.peak_level})"
        )
    findings = section.result.findings
    return "invariants: {} FAILED — {}".format(len(findings), "; ".join(findings[:3]))


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def render_markdown(sections: Sequence[TraceSection], *, title: str) -> str:
    """The full report as GitHub-flavoured Markdown (self-contained)."""
    sections = _unique_labels(sections)
    lines = [
        f"# {title}",
        "",
        f"{len(sections)} trace(s) analyzed by `repro report` "
        "(metrics recomputed from the event stream alone; "
        "see docs/observability.md).",
        "",
        "## Comparison",
        "",
        "```",
        comparison_table(sections),
        "```",
        "",
    ]
    for section in sections:
        lines += _markdown_section(section)
    return "\n".join(lines)


def _markdown_section(section: TraceSection) -> List[str]:
    lines = [
        f"## {section.label}",
        "",
        f"- trace: `{section.path}`",
        f"- {_check_line(section)}",
        f"- {_ecc_summary(section)}",
    ]
    if section.result.meta.get("faulty"):
        lines.append("- fault injection was active during this run")
    lines += ["", "```", _metrics_table(section), "```", ""]
    chart = _occupancy_chart(section)
    if chart:
        lines += ["```", chart, "```", ""]
    queue_plot = _queue_depth_plot(section)
    if queue_plot:
        lines += ["```", queue_plot, "```", ""]
    return lines


# ----------------------------------------------------------------------
# HTML (single file, no external assets)
# ----------------------------------------------------------------------
_HTML_STYLE = """
body { font-family: sans-serif; max-width: 72em; margin: 1em auto; padding: 0 1em; }
pre { background: #f6f8fa; padding: 0.8em; overflow-x: auto; line-height: 1.2; }
h1 { border-bottom: 2px solid #ddd; } h2 { border-bottom: 1px solid #eee; }
.bad { color: #b00; font-weight: bold; } .ok { color: #080; }
svg { background: #fcfcfc; border: 1px solid #eee; }
figcaption { font-size: 0.85em; color: #555; }
""".strip()


def _svg_steps(
    points: Sequence[Tuple[float, float]],
    *,
    width: int = 560,
    height: int = 120,
    color: str = "#2266bb",
    caption: str = "",
) -> str:
    """A step function as an inline SVG polyline (self-contained)."""
    if len(points) < 2:
        return ""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_max = max(max(ys), 1.0)
    x_span = (x_max - x_min) or 1.0
    pad = 4
    coords: List[str] = []
    previous_y: Optional[float] = None
    for x, y in points:
        px = pad + (x - x_min) / x_span * (width - 2 * pad)
        py = height - pad - y / y_max * (height - 2 * pad)
        if previous_y is not None:
            prev_py = height - pad - previous_y / y_max * (height - 2 * pad)
            coords.append(f"{px:.1f},{prev_py:.1f}")  # horizontal run, then step
        coords.append(f"{px:.1f},{py:.1f}")
        previous_y = y
    polyline = " ".join(coords)
    return (
        f'<figure><svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{polyline}"/></svg>'
        f"<figcaption>{escape(caption)} (peak {y_max:g})</figcaption></figure>"
    )


def render_html(sections: Sequence[TraceSection], *, title: str) -> str:
    """The full report as a single self-contained HTML document."""
    sections = _unique_labels(sections)
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{escape(title)}</h1>",
        f"<p>{len(sections)} trace(s) analyzed by <code>repro report</code>; "
        "metrics recomputed from the event stream alone "
        "(docs/observability.md).</p>",
        "<h2>Comparison</h2>",
        f"<pre>{escape(comparison_table(sections))}</pre>",
    ]
    for section in sections:
        parts += _html_section(section)
    parts.append("</body></html>")
    return "\n".join(parts)


def _html_section(section: TraceSection) -> List[str]:
    result = section.result
    css = "ok" if section.ok else "bad"
    status = f'<span class="{css}">{escape(_check_line(section))}</span>'
    parts = [
        f"<h2>{escape(section.label)}</h2>",
        f"<p><code>{escape(section.path)}</code><br>{status}<br>"
        f"{escape(_ecc_summary(section))}</p>",
        f"<pre>{escape(_metrics_table(section))}</pre>",
    ]
    chart = _occupancy_chart(section)
    if chart:
        parts.append(f"<pre>{escape(chart)}</pre>")
    if len(result.utilization_steps) >= 2:
        parts.append(
            _svg_steps(
                [(t, float(level)) for t, level in result.utilization_steps],
                caption=f"busy processors over time — {section.label}",
            )
        )
    if len(result.queue_depth) >= 2:
        parts.append(
            _svg_steps(
                [(t, float(d)) for t, d in result.queue_depth],
                color="#bb4422",
                caption=f"queue depth over time — {section.label}",
            )
        )
    return parts


def build_report(
    paths: Sequence[str], *, html: bool = False, title: str = "Trace analytics report"
) -> str:
    """Analyze ``paths`` (files and/or sweep directories) into one report."""
    sections = [analyze_trace(path) for path in collect_traces(paths)]
    render = render_html if html else render_markdown
    return render(sections, title=title)


# ----------------------------------------------------------------------
# CLI: ``repro report``
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``repro report`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Build a self-contained Markdown/HTML report from "
        "exported JSONL traces or a sweep directory of them.",
    )
    parser.add_argument(
        "paths", nargs="+",
        help="trace files and/or directories containing *.jsonl traces",
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the report here (default: stdout)",
    )
    parser.add_argument(
        "--html", action="store_true",
        help="emit a single self-contained HTML document instead of Markdown",
    )
    parser.add_argument(
        "--title", default="Trace analytics report", help="report heading"
    )
    return parser


@trace_cli
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro report``; returns the exit code."""
    args = build_parser().parse_args(argv)
    report = build_report(args.paths, html=args.html, title=args.title)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


__all__ = [
    "TIMELINE_JOB_LIMIT",
    "TraceSection",
    "analyze_trace",
    "build_report",
    "collect_traces",
    "comparison_table",
    "main",
    "render_html",
    "render_markdown",
]
