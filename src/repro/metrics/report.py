"""Plain-text tables for the experiment harness.

The benchmark scripts print paper-shaped tables: one row per load
point (figures) or one row per metric with max-% improvements
(Tables IV–VII).  Everything is simple monospace formatting — the
harness targets terminals and CI logs, not publications.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def _format_cell(value: object, width: int) -> str:
    if isinstance(value, float):
        text = f"{value:.4g}"
    else:
        text = str(value)
    return text.rjust(width)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a monospace table with a header rule."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {columns}")
    rendered_rows = [
        [_format_cell(cell, 0).strip() for cell in row] for row in rows
    ]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered_rows)) if rows else len(str(headers[i]))
        for i in range(columns)
    ]
    lines = [
        "  ".join(str(h).rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_metrics_table(
    sweep_label: str,
    sweep_values: Sequence[float],
    series: Mapping[str, Sequence[Mapping[str, float]]],
    metrics: Sequence[str] = ("utilization", "mean_wait"),
) -> str:
    """Figure-style table: sweep variable × algorithm × metric.

    Args:
        sweep_label: Name of the x-axis variable (``Load``, ``C_s``).
        sweep_values: The x-axis points.
        series: algorithm name -> list of per-point metric dicts
            (aligned with ``sweep_values``).
        metrics: Which metric keys to print.

    Returns:
        One table block per metric, separated by blank lines.
    """
    blocks = []
    algorithms = list(series)
    for metric in metrics:
        headers = [sweep_label] + algorithms
        rows: List[List[object]] = []
        for index, x in enumerate(sweep_values):
            row: List[object] = [x]
            for algorithm in algorithms:
                row.append(series[algorithm][index][metric])
            rows.append(row)
        blocks.append(f"metric: {metric}\n" + format_table(headers, rows))
    return "\n\n".join(blocks)


def format_comparison_table(
    title: str,
    improvements: Mapping[str, Mapping[str, float]],
) -> str:
    """Tables IV–VII style: metric rows × baseline columns (max %).

    Args:
        title: Table caption.
        improvements: metric name -> {baseline name -> max % improvement}.
    """
    baselines: List[str] = []
    for per_metric in improvements.values():
        for baseline in per_metric:
            if baseline not in baselines:
                baselines.append(baseline)
    headers = ["Performance Metric"] + [f"{b} (%)" for b in baselines]
    rows = []
    for metric, per_metric in improvements.items():
        rows.append([metric] + [per_metric.get(b, float("nan")) for b in baselines])
    return f"{title}\n{format_table(headers, rows)}"


__all__ = ["format_comparison_table", "format_metrics_table", "format_table"]
