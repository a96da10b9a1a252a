"""Tests for the text timeline renderer."""

from __future__ import annotations

from repro.metrics.records import JobRecord
from repro.metrics.timeline import occupancy_sparkline, record_steps, render_timeline
from repro.workload.job import JobKind


def record(job_id, submit, start, finish, num=160, requested_start=None):
    return JobRecord(
        job_id=job_id,
        kind=JobKind.DEDICATED if requested_start is not None else JobKind.BATCH,
        num=num,
        submit=submit,
        start=start,
        finish=finish,
        requested_start=requested_start,
    )


class TestRenderTimeline:
    def test_bars_and_waiting_dots(self):
        records = [record(1, submit=0.0, start=50.0, finish=100.0)]
        text = render_timeline(records, 320, width=20)
        assert "#1" in text
        assert "█" in text
        assert "·" in text  # queueing delay rendered
        assert "busy" in text

    def test_row_order_by_start(self):
        records = [
            record(2, submit=0.0, start=60.0, finish=100.0),
            record(1, submit=0.0, start=0.0, finish=50.0),
        ]
        text = render_timeline(records, 320, width=20)
        assert text.index("#1") < text.index("#2")

    def test_dedicated_tag(self):
        records = [record(1, submit=0.0, start=10.0, finish=20.0, requested_start=10.0)]
        text = render_timeline(records, 320, width=20)
        assert "pD|" in text

    def test_max_rows_summary(self):
        records = [
            record(i, submit=0.0, start=float(i), finish=float(i) + 10.0)
            for i in range(1, 11)
        ]
        text = render_timeline(records, 320, width=20, max_rows=3)
        assert "7 more jobs not shown" in text

    def test_empty_and_degenerate(self):
        assert render_timeline([], 320) == "(no completed jobs)"
        same_instant = [record(1, submit=5.0, start=5.0, finish=5.0)]
        assert "degenerate" in render_timeline(same_instant, 320, t0=5.0, t1=5.0)


class TestOccupancySparkline:
    def test_full_machine_is_full_block(self):
        records = [record(1, submit=0.0, start=0.0, finish=100.0, num=320)]
        spark = occupancy_sparkline(record_steps(records), 320, width=10)
        assert spark == "█" * 10

    def test_half_machine_is_mid_block(self):
        records = [record(1, submit=0.0, start=0.0, finish=100.0, num=160)]
        spark = occupancy_sparkline(record_steps(records), 320, width=10)
        assert set(spark) == {"▄"}

    def test_idle_tail_is_blank(self):
        records = [
            record(1, submit=0.0, start=0.0, finish=50.0, num=320),
            record(2, submit=0.0, start=50.0, finish=100.0, num=32),
        ]
        spark = occupancy_sparkline(record_steps(records), 320, width=10)
        assert spark[0] == "█"
        assert spark[-1] != "█"

    def test_empty(self):
        assert occupancy_sparkline(record_steps([]), 320, width=5) == "     "
