"""Tests for the repro-sim CLI."""

from __future__ import annotations

import pytest

from repro.cli import _build_workload, _profile_parser, build_parser, main
from repro.experiments.cache import workload_digest


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.jobs == 500
        assert args.load == 0.9
        assert args.algorithms == ["EASY", "LOS", "Delayed-LOS"]

    def test_custom_arguments(self):
        args = build_parser().parse_args(
            ["--algorithms", "Hybrid-LOS", "--jobs", "100", "--p-dedicated", "0.5"]
        )
        assert args.algorithms == ["Hybrid-LOS"]
        assert args.jobs == 100
        assert args.p_dedicated == 0.5

    @pytest.mark.parametrize(
        "flags",
        [
            ["--jobs", "60", "--seed", "42"],
            ["--jobs", "50", "--seed", "7", "--load", "0.8", "--machine", "640",
             "--p-dedicated", "0.2", "--p-extend", "0.1", "--malleable", "0.5"],
        ],
    )
    def test_profile_builds_the_workload_sim_builds(self, flags):
        sim = _build_workload(build_parser().parse_args(flags))
        profile = _build_workload(_profile_parser().parse_args(flags))
        assert workload_digest(profile) == workload_digest(sim)


class TestMain:
    def test_list_algorithms(self, capsys):
        assert main(["--list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "Delayed-LOS" in out and "EASY-DE" in out

    def test_small_comparison_run(self, capsys):
        code = main(
            ["--jobs", "40", "--load", "0.7", "--seed", "3",
             "--algorithms", "EASY", "Delayed-LOS"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workload: 40 jobs" in out
        assert "EASY" in out and "Delayed-LOS" in out
        assert "utilization" in out

    def test_save_and_reload_cwf(self, tmp_path, capsys):
        path = tmp_path / "generated.cwf"
        assert main(
            ["--jobs", "30", "--load", "0.6", "--save-cwf", str(path),
             "--algorithms", "EASY"]
        ) == 0
        assert path.exists()
        # Re-run from the saved file.
        assert main(["--cwf", str(path), "--algorithms", "EASY"]) == 0
        out = capsys.readouterr().out
        assert "loaded from" not in out  # description not printed, just works

    def test_heterogeneous_run(self, capsys):
        code = main(
            ["--jobs", "30", "--load", "0.7", "--p-dedicated", "0.5",
             "--algorithms", "Hybrid-LOS", "EASY-D"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dedicated" in out

    @pytest.mark.parametrize("lookahead", ["0", "-1"])
    def test_lookahead_below_one_reported(self, capsys, lookahead):
        code = main(
            ["--jobs", "20", "--lookahead", lookahead, "--algorithms", "EASY", "Delayed-LOS"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "Delayed-LOS: lookahead must be at least 1" in captured.err
        assert "utilization" not in captured.out

    @pytest.mark.parametrize("load", ["nan", "inf", "0", "-1"])
    def test_load_must_be_finite_and_positive(self, capsys, load):
        code = main(["--jobs", "20", "--load", load, "--algorithms", "EASY"])
        assert code == 2
        captured = capsys.readouterr()
        assert "target load must be finite and positive" in captured.err
        assert "utilization" not in captured.out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--faults", "mtbf=nan,seed=1"],
            ["--faults", "pfail=0.5,seed=1", "--retry-backoff", "nan"],
            ["--faults", "pfail=0.5,seed=1", "--retry-backoff", "inf"],
            ["--faults", "pfail=0.5,seed=1", "--retry-backoff", "1e308"],
        ],
        ids=["mtbf-nan", "backoff-nan", "backoff-inf", "backoff-overflows"],
    )
    def test_non_finite_fault_inputs_reported(self, capsys, extra):
        code = main(["--algorithms", "EASY", "--jobs", "60", "--seed", "1", *extra])
        assert code == 2
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert "utilization" not in captured.out

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_dedicated_jobs_under_batch_policy_reported(self, capsys, parallel):
        code = main([
            "--algorithms", "EASY", "--jobs", "50", "--seed", "11",
            "--p-dedicated", "0.2", "--parallel", parallel,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            "workload has 6 dedicated jobs but EASY handles batch jobs only "
            "(use a -D variant)"
        ]
        assert "utilization" not in captured.out

    def test_resume_bad_cadence_reported(self, tmp_path, capsys):
        from repro.cli import repro_main

        assert repro_main(["resume", str(tmp_path), "--checkpoint-every", "0"]) == 2
        assert capsys.readouterr().err.strip() == "every_events must be positive, got 0"


class TestNewFlags:
    def test_stats_flag(self, capsys):
        assert main(["--jobs", "25", "--load", "0.6", "--algorithms", "EASY", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "size histogram:" in out

    def test_timeline_flag(self, capsys):
        assert main(["--jobs", "20", "--load", "0.6", "--algorithms", "EASY", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "--- timeline: EASY ---" in out
        assert "busy" in out

    def test_export_csv_and_json(self, tmp_path, capsys):
        csv_path = tmp_path / "runs.csv"
        json_path = tmp_path / "run.json"
        assert main(
            ["--jobs", "20", "--load", "0.6", "--algorithms", "EASY", "LOS",
             "--export-csv", str(csv_path), "--export-json", str(json_path)]
        ) == 0
        assert csv_path.read_text().startswith("algorithm,")
        assert csv_path.read_text().count("\n") == 3  # header + 2 runs
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        assert payload["algorithm"] == "EASY"
        assert payload["records"]

    def test_figure_flag_small(self, capsys):
        assert main(["--figure", "7", "--jobs", "30"]) == 0
        out = capsys.readouterr().out
        assert "figure 7" in out
        assert "mean_wait vs Load" in out

    def test_adaptive_in_cli(self, capsys):
        assert main(["--jobs", "25", "--load", "0.7", "--algorithms", "ADAPTIVE"]) == 0
        assert "ADAPTIVE" in capsys.readouterr().out

    def test_validate_clean_workload(self, capsys):
        assert main(["--jobs", "20", "--load", "0.6", "--validate"]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_validate_broken_cwf(self, tmp_path, capsys):
        # Craft a CWF whose job violates the 32-proc granularity.
        path = tmp_path / "broken.cwf"
        path.write_text("1 0 -1 100 33 -1 -1 33 100 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 S -1\n")
        code = main(["--cwf", str(path), "--machine", "320", "--validate"])
        # Granularity for loaded CWF defaults to 1, so the 33-proc job
        # is legal there; instead check oversized detection.
        assert code == 0
        big = tmp_path / "big.cwf"
        big.write_text("1 0 -1 100 640 -1 -1 640 100 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 S -1\n")
        assert main(["--cwf", str(big), "--machine", "320", "--validate"]) == 1
        assert "job-too-large" in capsys.readouterr().out


class TestInterruptedSweep:
    def test_interrupt_reports_kept_runs_and_cache_resumes(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import parallel

        argv = ["--jobs", "30", "--load", "0.7", "--seed", "3", "--parallel", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--algorithms", "EASY", "LOS", "Delayed-LOS"]
        calls = []
        real = parallel.execute_spec

        def interrupting(spec):
            calls.append(spec.algorithm)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(spec)

        monkeypatch.setattr(parallel, "execute_spec", interrupting)
        assert main(argv) == 75
        err = capsys.readouterr().err
        assert "interrupted after 1/3 runs" in err
        assert "re-run the same command" in err

        monkeypatch.undo()
        assert main(argv) == 0
        assert "(1 cached, 2 simulated" in capsys.readouterr().out
