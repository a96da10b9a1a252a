"""Text timeline (Gantt-style) rendering of a simulation.

Turns completion records into a terminal-friendly occupancy chart:
one row per job (start → finish bar) plus a machine-occupancy sparkline
— invaluable for eyeballing packing decisions when developing policies.

Example output::

    t = 0 .. 1200 s, 10 columns of 120 s
    #12  32p |   ████      |
    #13  64p |     ██████  |
    busy %   | 259 999 741 |
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.records import JobRecord

#: Eight-level block characters for the occupancy sparkline.
_SPARK = " ▁▂▃▄▅▆▇█"


def _clamp(value: float, low: float, high: float) -> float:
    return max(low, min(high, value))


def record_steps(records: Sequence[JobRecord]) -> List[Tuple[float, int]]:
    """The busy-processor step function of completion records.

    A record holds only its job's final attempt at its final size, so
    the steps are exact only when no attempt failed and no job changed
    size; a replayed trace's ``utilization_steps`` always are.
    """
    deltas: Dict[float, int] = defaultdict(int)
    for record in records:
        deltas[record.start] += record.num
        deltas[record.finish] -= record.num
    times = sorted(deltas)
    return list(zip(times, accumulate(deltas[time] for time in times)))


def render_timeline(
    records: Sequence[JobRecord],
    machine_size: int,
    *,
    steps: Optional[Sequence[Tuple[float, int]]] = None,
    width: int = 72,
    max_rows: int = 40,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> str:
    """Render job spans and machine occupancy as text.

    Args:
        records: Completion records (any order).
        machine_size: ``M``, for the occupancy percentage.
        steps: The busy row's step function (:func:`busy_cells`);
            defaults to :func:`record_steps` of ``records``.
        width: Chart width in character cells.
        max_rows: At most this many job rows (earliest starts first;
            a summary line notes the rest).
        t0 / t1: Window bounds; default to the records' extent.

    Returns:
        The multi-line chart; a placeholder string when empty.

    >>> render_timeline([], machine_size=320)
    '(no completed jobs)'
    """
    if not records:
        return "(no completed jobs)"
    ordered = sorted(records, key=lambda r: (r.start, r.job_id))
    lo = min(r.submit for r in ordered) if t0 is None else t0
    hi = max(r.finish for r in ordered) if t1 is None else t1
    span = hi - lo
    if span <= 0:
        return "(degenerate window)"
    cell = span / width

    def col(time: float) -> int:
        return int(_clamp((time - lo) / cell, 0, width - 1))

    lines = [f"t = {lo:g} .. {hi:g} s, {width} columns of {cell:.1f} s"]
    shown = ordered[:max_rows]
    id_width = max(len(str(r.job_id)) for r in shown)
    for record in shown:
        bar = [" "] * width
        start_col, end_col = col(record.start), col(record.finish)
        for index in range(start_col, max(start_col, end_col) + 1):
            bar[index] = "█"
        wait_col = col(record.submit)
        for index in range(wait_col, start_col):
            bar[index] = "·"  # queueing delay
        tag = "D" if record.requested_start is not None else " "
        lines.append(
            f"#{record.job_id:<{id_width}} {record.num:>4}p{tag}|{''.join(bar)}|"
        )
    if len(ordered) > max_rows:
        lines.append(f"... {len(ordered) - max_rows} more jobs not shown")

    if steps is None:
        steps = record_steps(ordered)
    spark = occupancy_sparkline(steps, machine_size, width=width, t0=lo, t1=hi)
    lines.append("busy      |" + spark + "|")
    return "\n".join(lines)


def busy_cells(
    steps: Sequence[Tuple[float, int]], width: int, t0: float, t1: float
) -> List[float]:
    """Busy processor-seconds in each of ``width`` equal cells of ``[t0, t1]``.

    The exact integral over each cell of ``steps``, a busy-processor step
    function of ``(time, level)`` points in time order (level 0 before
    the first), such as ``TraceReplay.utilization_steps``.
    """
    cell = (t1 - t0) / width
    edges = [t0 + index * cell for index in range(width)] + [t1]
    busy = [0.0] * width
    ends = [time for time, _ in steps[1:]] + [t1]
    for (start, level), finish in zip(steps, ends):
        start, finish = max(start, t0), min(finish, t1)
        if not level or finish <= start:
            continue
        first = int(_clamp((start - t0) / cell, 0, width - 1))
        last = int(_clamp((finish - t0) / cell, 0, width - 1))
        for index in range(first, last + 1):
            overlap = min(finish, edges[index + 1]) - max(start, edges[index])
            if overlap > 0:
                busy[index] += level * overlap
    return busy


def occupancy_sparkline(
    steps: Sequence[Tuple[float, int]],
    machine_size: int,
    *,
    width: int = 72,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> str:
    """Machine occupancy over time as a block-character sparkline.

    Each cell shows the *time-averaged* busy fraction of its window,
    computed exactly from ``steps`` (no sampling); the window defaults
    to their extent.
    """
    if not steps or machine_size <= 0:
        return " " * width
    lo = steps[0][0] if t0 is None else t0
    hi = steps[-1][0] if t1 is None else t1
    if hi <= lo:
        return " " * width
    capacity = machine_size * (hi - lo) / width
    top = len(_SPARK) - 1
    return "".join(
        _SPARK[int(round(_clamp(busy / capacity, 0.0, 1.0) * top))]
        for busy in busy_cells(steps, width, lo, hi)
    )


__all__ = ["busy_cells", "occupancy_sparkline", "record_steps", "render_timeline"]
