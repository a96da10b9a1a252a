"""``repro report``: trace files/sweep directories to Markdown/HTML."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as sim_main, repro_main
from repro.experiments.parallel import RunSpec, execute_spec
from repro.metrics.timeline import busy_cells
from repro.obs.report import (
    analyze_trace,
    build_report,
    collect_traces,
    comparison_table,
    main as report_main,
)
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """A sweep directory: two traced runs of the same workload."""
    directory = tmp_path_factory.mktemp("sweep")
    config = GeneratorConfig(n_jobs=25, p_extend=0.3, p_reduce=0.1)
    workload = CWFWorkloadGenerator(config).generate(np.random.default_rng(3))
    for name in ("EASY", "LOS-E"):
        execute_spec(
            RunSpec(
                workload=workload,
                algorithm=name,
                trace_out=str(directory / f"run.{name}.jsonl"),
            )
        )
    return directory


class TestCollect:
    def test_directory_globs_jsonl(self, sweep_dir):
        files = collect_traces([str(sweep_dir)])
        assert len(files) == 2
        assert files == sorted(files)

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            collect_traces(["/nonexistent/trace.jsonl"])

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError):
            collect_traces([str(tmp_path)])


class TestMarkdown:
    def test_report_is_self_contained(self, sweep_dir):
        report = build_report([str(sweep_dir)])
        assert report.startswith("# Trace analytics report")
        # Both traces, the comparison table and per-trace metrics.
        assert "## Comparison" in report
        assert "## EASY" in report
        assert "## LOS-E" in report
        assert "utilization" in report
        assert "bounded_slowdown" in report
        assert "invariants: OK" in report

    def test_elastic_episodes_reported(self, sweep_dir):
        section = analyze_trace(str(sweep_dir / "run.LOS-E.jsonl"))
        report = build_report([str(sweep_dir / "run.LOS-E.jsonl")])
        if section.result.ecc_episodes:
            assert "ECC episodes" in report

    def test_comparison_table_one_row_per_trace(self, sweep_dir):
        sections = [analyze_trace(p) for p in collect_traces([str(sweep_dir)])]
        table = comparison_table(sections)
        assert len(table.splitlines()) == 2 + len(sections)


class TestHtml:
    def test_single_file_with_inline_svg(self, sweep_dir):
        html = build_report([str(sweep_dir)], html=True, title="My sweep")
        assert html.startswith("<!DOCTYPE html>")
        assert "<title>My sweep</title>" in html
        assert "<svg" in html  # inline charts, no external assets
        assert "http://" not in html and "https://" not in html
        assert "LOS-E" in html


class TestCli:
    def test_writes_output_file(self, sweep_dir, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert report_main([str(sweep_dir), "-o", str(out)]) == 0
        assert out.exists()
        assert "# Trace analytics report" in out.read_text(encoding="utf-8")
        assert "wrote" in capsys.readouterr().out

    def test_html_flag(self, sweep_dir, tmp_path):
        out = tmp_path / "report.html"
        assert report_main([str(sweep_dir), "--html", "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_stdout_default(self, sweep_dir, capsys):
        assert report_main([str(sweep_dir)]) == 0
        assert "## Comparison" in capsys.readouterr().out

    def test_bad_input_exits_2(self, capsys):
        assert report_main(["/nonexistent/trace.jsonl"]) == 2
        assert "no such trace" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["arrive", "start", "finish", "job-fail"])
    def test_record_without_a_job_exits_2(self, kind, tmp_path, capsys):
        path = tmp_path / "jobless.jsonl"
        path.write_text(
            '{"schema":"repro.trace/1","meta":{"machine_size":320}}\n'
            '{"t":0.0,"kind":"arrive","data":{"job":1,"num":32}}\n'
            '{"t":0.0,"kind":"start","data":{"job":1,"num":32}}\n'
            f'{{"t":9.0,"kind":"{kind}","data":{{"num":32}}}}\n'
        )
        assert report_main([str(path)]) == 2
        assert capsys.readouterr().err == (
            f"{path}: record 3 ('{kind}') has no integer 'job' field\n"
        )

    def test_umbrella_subcommand(self, sweep_dir, tmp_path):
        out = tmp_path / "via_umbrella.md"
        assert repro_main(["report", str(sweep_dir), "-o", str(out)]) == 0
        assert out.exists()


class TestSchedulerInitiatedEccs:
    def test_summary_attributes_runtime_resizes(self, tmp_path):
        from repro.workload.transform import make_malleable

        config = GeneratorConfig(n_jobs=60, p_extend=0.2, p_reduce=0.1)
        workload = make_malleable(
            CWFWorkloadGenerator(config).generate(np.random.default_rng(11)),
            0.6,
            seed=3,
        )
        execute_spec(
            RunSpec(
                workload=workload,
                algorithm="Malleable-Backfill",
                trace_out=str(tmp_path / "run.jsonl"),
            )
        )
        report = build_report([str(tmp_path)])
        assert "scheduler-initiated" in report


@pytest.fixture(scope="module")
def resized_traces(tmp_path_factory):
    """Traces whose completion records miss busy time: failed attempts
    under faults, and runtime resizes under a Malleable-* policy."""
    directory = tmp_path_factory.mktemp("resized")
    runs = {
        "faulted": ["EASY", "--faults", "mtbf=20000,mttr=2000,seed=1,pfail=0.1"],
        "malleable": ["Malleable-Backfill", "--malleable", "0.5"],
    }
    for name, (algorithm, *flags) in runs.items():
        path = directory / f"{name}.jsonl"
        argv = ["--jobs", "60", "--seed", "3", "--algorithms", algorithm, *flags]
        assert sim_main(argv + ["--trace-out", str(path)]) == 0
    return directory


class TestOccupancy:
    @pytest.mark.parametrize("name", ["faulted", "malleable"])
    def test_chart_integrates_the_replay(self, resized_traces, name):
        path = str(resized_traces / f"{name}.jsonl")
        result = analyze_trace(path).result
        busy = result.busy_area()
        from_records = sum(r.num * (r.finish - r.start) for r in result.records)
        assert from_records != pytest.approx(busy, rel=1e-9)

        lo, hi, width = result.start_time, result.last_finish, 72
        assert sum(busy_cells(result.utilization_steps, width, lo, hi)) == pytest.approx(
            busy, rel=1e-9
        )
        # Each drawn cell is the replay's busy fraction over that cell.
        edges = [lo + i * (hi - lo) / width for i in range(width)] + [hi]
        capacity = result.machine_size * (hi - lo) / width
        expected = "".join(
            " ▁▂▃▄▅▆▇█"[round(min(1.0, (result.busy_area(b) - result.busy_area(a)) / capacity) * 8)]
            for a, b in zip(edges, edges[1:])
        )
        assert f"busy      |{expected}|" in build_report([path])

