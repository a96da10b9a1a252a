"""Command-line entry points: ``repro-sim`` and ``repro``.

Runs one simulation (or a small comparison) from the terminal::

    repro-sim --algorithms EASY LOS Delayed-LOS --jobs 500 --load 0.9
    repro-sim --cwf my_workload.cwf --algorithms Hybrid-LOS
    repro-sim --algorithms EASY LOS --parallel 4 --cache --progress
    repro-sim --algorithms EASY Hybrid-LOS-E \
        --faults mtbf=86400,mttr=3600,seed=1 --max-retries 3 --checkpoint
    repro-sim --algorithms Delayed-LOS --trace-out run.jsonl --telemetry
    repro-sim --list-algorithms

The ``repro`` umbrella command wraps this plus the trace inspector,
the trace-report builder, the phase profiler and the decision
explainer (docs/observability.md)::

    repro sim --algorithms EASY --trace-out run.jsonl
    repro trace run.jsonl --check
    repro report run.jsonl -o report.md
    repro profile --algorithm Delayed-LOS --spans-out spans.json
    repro explain run.jsonl --job 17

Useful for eyeballing the system without writing Python; the full
reproduction lives in ``benchmarks/``.  Algorithm runs fan out over
worker processes (``--parallel`` / ``REPRO_JOBS``) and can reuse the
content-addressed run cache (``--cache`` / ``REPRO_CACHE=1``); see
docs/performance.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.registry import ALGORITHMS, make_scheduler
from repro.experiments.cache import RunCache
from repro.experiments.calibrate import calibrate_beta_arr
from repro.experiments.parallel import SweepInterrupted, resolve_jobs
from repro.experiments.sweep import run_algorithms
from repro.faults.model import RetryPolicy, parse_faults_spec
from repro.metrics.report import format_table
from repro.obs.analytics import TraceOracleError
from repro.obs.progress import ProgressReporter, ProgressSummary
from repro.obs.trace_io import TraceReadError
from repro.workload.cwf import parse_cwf_workload
from repro.workload.generator import GeneratorConfig, Workload
from repro.workload.twostage import TwoStageSizeConfig


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-sim`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Simulate parallel-job scheduling (IPPS 2012 Delayed-LOS / "
            "Hybrid-LOS reproduction)."
        ),
    )
    parser.add_argument(
        "--list-algorithms", action="store_true", help="list registry names and exit"
    )
    parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["EASY", "LOS", "Delayed-LOS"],
        help="algorithms to compare (Table III names)",
    )
    _add_run_flags(parser)
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="worker processes for the comparison (default: REPRO_JOBS or CPU count; "
        "1 = deterministic serial path, same results)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="reuse/persist runs in the content-addressed run cache "
        "(.repro_cache/; also enabled by REPRO_CACHE=1)",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="run-cache directory (default: .repro_cache or REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="export each run's event trace as JSONL (docs/observability.md); "
        "with several algorithms the name expands per run, e.g. "
        "run.jsonl -> run.EASY.jsonl.  Inspect with 'repro trace PATH'",
    )
    parser.add_argument(
        "--spans-out", type=str, default=None, metavar="PATH",
        help="profile each run with phase spans and write the timeline as "
        "Chrome trace-event JSON, loadable in Perfetto or chrome://tracing "
        "(docs/performance.md); with several algorithms the name expands "
        "per run like --trace-out.  Per-phase aggregates also appear in "
        "--telemetry output",
    )
    parser.add_argument(
        "--decisions", action="store_true",
        help="record a 'decision' trace record with a reason code whenever "
        "a queued job is passed over (requires --trace-out); inspect with "
        "'repro explain TRACE --job N'",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="report per-run progress (done/total, cache hits, ETA) on stderr",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="print each run's scheduler telemetry counters after the table",
    )
    parser.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help="inject faults: key=value spec, e.g. "
        "mtbf=86400,mttr=3600,seed=1,pfail=0.02,poison=3|9 (docs/resilience.md)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=3, metavar="K",
        help="requeue budget per failed job before it fails permanently",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="resubmission delay after a failure (doubles per extra attempt)",
    )
    parser.add_argument(
        "--checkpoint", action="store_true",
        help="preserve completed work across restarts (elastic -E policies, "
        "applied through the ECC machinery)",
    )
    parser.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help="periodically checkpoint each run into DIR/<algorithm>/ and "
        "resume from there on the next invocation (docs/resilience.md); "
        "a resumed run is bitwise-identical to an uninterrupted one",
    )
    _add_cadence_flags(parser)
    parser.add_argument(
        "--save-cwf", type=str, default=None, help="write the generated workload to a CWF file"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print workload characterization before running"
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="validate the workload and exit non-zero on errors (no simulation)",
    )
    parser.add_argument(
        "--timeline", action="store_true",
        help="render a text occupancy timeline per algorithm (small runs only; "
        "built from completion records, exact without failed attempts or resizes)",
    )
    parser.add_argument(
        "--export-csv", type=str, default=None,
        help="write per-run aggregates to this CSV file",
    )
    parser.add_argument(
        "--export-json", type=str, default=None,
        help="write the first algorithm's full run (records included) to JSON",
    )
    parser.add_argument(
        "--figure", type=str, default=None, choices=["1", "5", "6", "7", "8", "9", "10", "11"],
        help="regenerate a paper figure instead of a single comparison "
        "(equivalent benchmark lives in benchmarks/)",
    )
    return parser


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The workload and policy flags of ``repro sim`` and ``repro profile``.

    :func:`_build_workload` reads the workload flags, so both commands
    build the same workload from the same flags.
    """
    parser.add_argument("--jobs", type=int, default=500, help="jobs to generate (N_J)")
    parser.add_argument("--machine", type=int, default=320, help="machine size M")
    parser.add_argument(
        "--load", type=float, default=0.9, help="target offered load (calibrated)"
    )
    parser.add_argument("--p-small", type=float, default=0.5, help="P_S")
    parser.add_argument("--p-dedicated", type=float, default=0.0, help="P_D")
    parser.add_argument("--p-extend", type=float, default=0.0, help="P_E")
    parser.add_argument("--p-reduce", type=float, default=0.0, help="P_R")
    parser.add_argument("--cs", type=int, default=7, help="C_s skip threshold")
    parser.add_argument("--lookahead", type=int, default=50, help="DP lookahead")
    parser.add_argument("--seed", type=int, default=42, help="RNG seed")
    parser.add_argument(
        "--malleable", type=float, default=0.0, metavar="FRAC",
        help="declare [min, pref, max] processor ranges on this fraction "
        "of batch jobs, enabling the Malleable-* policies to resize "
        "them at runtime (docs/malleability.md); rigid policies ignore "
        "the ranges and behave byte-identically",
    )
    parser.add_argument(
        "--malleable-min", type=float, default=0.5, metavar="F",
        help="min_procs = num * F for jobs selected by --malleable",
    )
    parser.add_argument(
        "--malleable-pref", type=float, default=1.5, metavar="F",
        help="pref_procs = num * F for jobs selected by --malleable",
    )
    parser.add_argument(
        "--malleable-max", type=float, default=2.0, metavar="F",
        help="max_procs = num * F for jobs selected by --malleable",
    )
    parser.add_argument(
        "--cwf", type=str, default=None, help="load a CWF workload file instead of generating"
    )


def _add_cadence_flags(parser: argparse.ArgumentParser) -> None:
    """The checkpoint cadence of ``repro sim`` and ``repro resume``."""
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint every N simulated events (default: 50000)",
    )
    parser.add_argument(
        "--checkpoint-seconds", type=float, default=None, metavar="S",
        help="additional wall-clock checkpoint cadence in seconds",
    )


def _build_workload(args: argparse.Namespace) -> Workload:
    if args.cwf:
        jobs, eccs = parse_cwf_workload(args.cwf)
        workload = Workload(
            jobs=jobs,
            eccs=eccs,
            machine_size=args.machine,
            granularity=1,
            description=f"loaded from {args.cwf}",
        )
    else:
        config = GeneratorConfig(
            n_jobs=args.jobs,
            machine_size=args.machine,
            size=TwoStageSizeConfig(p_small=args.p_small),
            p_dedicated=args.p_dedicated,
            p_extend=args.p_extend,
            p_reduce=args.p_reduce,
        )
        calibration = calibrate_beta_arr(config, args.load, seed=args.seed)
        workload = calibration.workload
    if args.malleable:
        from repro.workload.transform import make_malleable

        workload = make_malleable(
            workload,
            args.malleable,
            min_factor=args.malleable_min,
            pref_factor=args.malleable_pref,
            max_factor=args.malleable_max,
            seed=args.seed,
        )
    return workload


def _trace_paths(trace_out: str, algorithms: Sequence[str]) -> Dict[str, str]:
    """Per-algorithm trace file paths for ``--trace-out``.

    A single algorithm gets the path verbatim; a comparison expands the
    name per run so traces never overwrite each other::

        run.jsonl + [EASY, LOS]  ->  run.EASY.jsonl, run.LOS.jsonl
    """
    if len(algorithms) == 1:
        return {algorithms[0]: trace_out}
    path = Path(trace_out)
    suffix = path.suffix or ".jsonl"
    return {
        name: str(path.with_name(f"{path.stem}.{name}{suffix}"))
        for name in algorithms
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_algorithms:
        for name in sorted(ALGORITHMS):
            print(name)
        return 0
    if args.figure:
        return _figure_report(args.figure, args.jobs)

    try:
        workload = _build_workload(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.save_cwf:
        workload.to_cwf(args.save_cwf)
        print(f"wrote {args.save_cwf}")
    print(
        f"workload: {len(workload)} jobs "
        f"({len(workload.dedicated_jobs)} dedicated, {len(workload.eccs)} ECCs), "
        f"offered load {workload.offered_load():.3f}, M={workload.machine_size}"
    )
    if args.validate:
        from repro.workload.validate import format_issues, has_errors, validate_workload

        issues = validate_workload(workload)
        print(format_issues(issues))
        return 1 if has_errors(issues) else 0
    if args.stats:
        from repro.workload.stats import characterize

        print()
        print(characterize(workload).render())
        print()

    unknown = [name for name in args.algorithms if name not in ALGORITHMS]
    if unknown:
        print(
            f"unknown algorithm(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(ALGORITHMS))}",
            file=sys.stderr,
        )
        return 2
    try:
        # Build each policy once up front so a bad --cs/--lookahead is
        # reported here, not as a traceback from inside the sweep.
        for name in args.algorithms:
            make_scheduler(name, max_skip_count=args.cs, lookahead=args.lookahead)
    except ValueError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 2

    try:
        resolve_jobs(args.parallel)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    faults = None
    retry = None
    if args.faults:
        try:
            faults = parse_faults_spec(args.faults)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            retry = RetryPolicy(
                max_retries=args.max_retries,
                backoff=args.retry_backoff,
                checkpoint=args.checkpoint,
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    cache = None
    if args.cache or args.cache_dir:
        cache = RunCache.from_env()
        cache.enabled = True
        if args.cache_dir:
            cache.root = args.cache_dir
    trace_out = None
    if args.trace_out:
        trace_out = _trace_paths(args.trace_out, args.algorithms)
    if args.decisions and trace_out is None:
        print(
            "--decisions records pass-over provenance in the trace stream; "
            "pass --trace-out as well",
            file=sys.stderr,
        )
        return 2
    spans_out = None
    if args.spans_out:
        spans_out = _trace_paths(args.spans_out, args.algorithms)
    # Always collect progress events (so the end-of-sweep summary line
    # — cache hit rate, serial retries — prints even without
    # --progress); forward them to a live reporter only when asked.
    progress = ProgressSummary(ProgressReporter() if args.progress else None)
    from repro.durable.signals import EXIT_INTERRUPTED, sigterm_as_interrupt

    try:
        with sigterm_as_interrupt():
            results = run_algorithms(
                workload,
                args.algorithms,
                max_skip_count=args.cs,
                lookahead=args.lookahead,
                faults=faults,
                retry=retry,
                jobs=args.parallel,
                cache=cache,
                trace_out=trace_out,
                spans_out=spans_out,
                decisions=args.decisions,
                progress=progress,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                checkpoint_seconds=args.checkpoint_seconds,
            )
    except (TraceOracleError, TraceReadError):
        raise  # the run's own trace failed its read-back: a bug, not bad input
    except ValueError as exc:
        # A workload a policy cannot run, e.g. dedicated jobs under a
        # batch-only policy.
        print(str(exc), file=sys.stderr)
        return 2
    except SweepInterrupted as exc:
        # Flush the progress summary, say what the interrupt kept and
        # how to pick the sweep back up, exit 75.
        print(progress.render(None), file=sys.stderr)
        hints = []
        if cache is not None:
            hints.append("completed runs are cached; re-run the same command "
                         "to continue where it left off")
        if args.checkpoint_dir:
            hints.append(f"in-flight runs resume from {args.checkpoint_dir}/")
        hint = f" ({'; '.join(hints)})" if hints else ""
        print(f"interrupted after {exc.completed}/{exc.total} runs{hint}", file=sys.stderr)
        return EXIT_INTERRUPTED
    headers = ["algorithm", "utilization", "mean wait (s)", "slowdown", "makespan (s)"]
    if faults is not None:
        headers += ["requeues", "failed", "lost work (ps)", "degraded (s)"]
    rows = []
    for name, metrics in results.items():
        row = [
            name,
            round(metrics.utilization, 4),
            round(metrics.mean_wait, 1),
            round(metrics.slowdown, 3),
            round(metrics.makespan, 0),
        ]
        if faults is not None:
            row += [
                metrics.requeue_count,
                metrics.failed_jobs,
                round(metrics.lost_work, 0),
                round(metrics.degraded_time, 0),
            ]
        rows.append(row)
    print(format_table(headers, rows))
    print(progress.render(cache.stats.hit_rate if cache is not None else None))
    if cache is not None:
        print(str(cache.stats))
    if trace_out is not None:
        for name in args.algorithms:
            print(f"trace ({name}): wrote {trace_out[name]}")
    if spans_out is not None:
        for name in args.algorithms:
            print(f"spans ({name}): wrote {spans_out[name]}")
    if args.telemetry:
        from repro.obs.telemetry import format_snapshot

        for name, metrics in results.items():
            snapshot = metrics.telemetry
            print(f"\n--- telemetry: {name} ---")
            if snapshot is None:
                print("(no telemetry attached to this run)")
                continue
            print(format_snapshot(snapshot))

    if args.timeline:
        from repro.metrics.timeline import render_timeline

        for name, metrics in results.items():
            print(f"\n--- timeline: {name} ---")
            print(render_timeline(metrics.records, workload.machine_size, max_rows=30))
    if args.export_csv:
        from repro.metrics.export import runs_to_csv

        runs_to_csv(results.values(), args.export_csv)
        print(f"wrote {args.export_csv}")
    if args.export_json:
        from repro.metrics.export import run_to_json

        first = next(iter(results.values()))
        run_to_json(first, args.export_json)
        print(f"wrote {args.export_json}")
    return 0


def _figure_report(figure_id: str, n_jobs: int) -> int:
    """Run one paper-figure experiment and print its series."""
    from repro.experiments import figures
    from repro.experiments.ascii_plot import ascii_plot
    from repro.experiments.sweep import SweepResult

    runner = {
        "1": lambda: figures.figure1(n_jobs=n_jobs),
        "5": lambda: figures.figure5(n_jobs=n_jobs),
        "6": lambda: figures.figure6(n_jobs=n_jobs),
        "7": lambda: figures.figure7(n_jobs=n_jobs),
        "8": lambda: figures.figure8(n_jobs=n_jobs),
        "9": lambda: figures.figure9(n_jobs=n_jobs),
        "10": lambda: figures.figure10(n_jobs=n_jobs),
        "11": lambda: figures.figure11(n_jobs=n_jobs),
    }[figure_id]
    result = runner()
    sweeps = result if isinstance(result, dict) else {f"figure {figure_id}": result}
    for label, sweep in sweeps.items():
        assert isinstance(sweep, SweepResult)
        print(f"\n=== {label} ===")
        for metric in ("utilization", "mean_wait"):
            series = {name: sweep.metric_series(name, metric) for name in sweep.series}
            print(
                ascii_plot(
                    sweep.sweep_values,
                    series,
                    title=f"{metric} vs {sweep.sweep_label}",
                    height=12,
                )
            )
    return 0


def _resume_main(argv: List[str]) -> int:
    """``repro resume``: continue an interrupted checkpointed run."""
    parser = argparse.ArgumentParser(
        prog="repro resume",
        description="Resume a simulation from a crash-safe checkpoint "
        "(written by --checkpoint-dir or simulate(checkpoint=...)); the "
        "completed run is bitwise-identical to an uninterrupted one "
        "(docs/resilience.md).",
    )
    parser.add_argument(
        "source",
        help="a checkpoint file, or a checkpoint directory (the newest "
        "usable checkpoint is taken)",
    )
    _add_cadence_flags(parser)
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="override the trace file location recorded in the checkpoint "
        "(only valid when the interrupted run was tracing)",
    )
    args = parser.parse_args(argv)

    from repro.durable.checkpoint import CheckpointError, CheckpointInterrupt, resume
    from repro.durable.signals import EXIT_INTERRUPTED, sigterm_as_interrupt

    source = Path(args.source)
    ckpt_dir = source if source.is_dir() else source.parent
    loaded: List[Dict[str, object]] = []

    def announce(path: Path, meta: Dict[str, object]) -> None:
        loaded.append(meta)
        print(
            f"resuming {meta.get('algorithm', '?')} from {path} "
            f"(event {meta.get('event_count', '?')}, t={meta.get('sim_time', '?')})"
        )

    try:
        with sigterm_as_interrupt():
            metrics = resume(
                source,
                checkpoint_every=args.checkpoint_every,
                checkpoint_seconds=args.checkpoint_seconds,
                trace_out=args.trace_out,
                on_load=announce,
            )
    except (CheckpointError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except CheckpointInterrupt as exc:
        print(
            f"interrupted again; checkpoint written to {exc.path} — "
            f"continue with 'repro resume {ckpt_dir}'",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print(
            f"interrupted between checkpoints; continue with "
            f"'repro resume {ckpt_dir}' (restarts from the newest checkpoint)",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    print(format_table(
        ["algorithm", "utilization", "mean wait (s)", "slowdown", "makespan (s)"],
        [[
            metrics.algorithm,
            round(metrics.utilization, 4),
            round(metrics.mean_wait, 1),
            round(metrics.slowdown, 3),
            round(metrics.makespan, 0),
        ]],
    ))
    journal = loaded[0].get("trace")
    if isinstance(journal, dict):
        print(f"trace: wrote {args.trace_out or journal['path']}")
    return 0


def _profile_parser() -> argparse.ArgumentParser:
    """The ``repro profile`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run one simulation with the phase-span profiler "
        "enabled and print the per-phase hot-spot table "
        "(docs/performance.md).  --spans-out exports the span timeline "
        "as Chrome trace-event JSON for Perfetto / chrome://tracing; "
        "--cprofile adds function-level detail on top.",
    )
    parser.add_argument(
        "--algorithm", default="Delayed-LOS", choices=sorted(ALGORITHMS)
    )
    _add_run_flags(parser)
    parser.add_argument(
        "--spans-out", default=None, metavar="PATH",
        help="write the span timeline as Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--cprofile", default=None, metavar="PATH",
        help="additionally run under cProfile and dump raw stats to PATH "
        "(view with pstats/snakeviz)",
    )
    return parser


def _profile_main(argv: List[str]) -> int:
    """``repro profile``: phase-span hot-spot profile of one run."""
    args = _profile_parser().parse_args(argv)

    from repro.experiments.runner import SimulationRunner
    from repro.obs.spans import phase_table

    try:
        scheduler = make_scheduler(
            args.algorithm, max_skip_count=args.cs, lookahead=args.lookahead
        )
    except ValueError as exc:
        print(f"{args.algorithm}: {exc}", file=sys.stderr)
        return 2
    try:
        runner = SimulationRunner(
            _build_workload(args), scheduler, spans=True, spans_out=args.spans_out
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    profiler = None
    if args.cprofile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    metrics = runner.run()
    if profiler is not None:
        profiler.disable()

    print(
        f"{args.algorithm}: {metrics.n_jobs} jobs, utilization "
        f"{metrics.utilization:.3f}, mean wait {metrics.mean_wait:.0f}s"
    )
    snapshot = metrics.telemetry
    assert snapshot is not None  # telemetry is always on for direct runs
    wall = snapshot.timers.get("run_wall_s", 0.0)
    events = snapshot.counters.get("span_event", 0)
    if wall > 0 and events:
        print(f"{events} events in {wall:.3f}s wall ({events / wall:,.0f} events/s)")
    print()
    print(phase_table(snapshot))
    if args.spans_out:
        print(f"\nspans: wrote {args.spans_out} (open in Perfetto)")
    if profiler is not None:
        import pstats

        pstats.Stats(profiler).dump_stats(args.cprofile)
        print(f"cProfile stats saved to {args.cprofile} (view with snakeviz/pstats)")
    return 0


def repro_main(argv: Optional[List[str]] = None) -> int:
    """Umbrella entry point: ``repro <subcommand> ...``.

    Subcommands:
        ``sim``: the full ``repro-sim`` interface (simulate/compare).
        ``resume``: continue an interrupted checkpointed run
        (:mod:`repro.durable.checkpoint`; docs/resilience.md).
        ``trace``: inspect an exported JSONL trace
        (:mod:`repro.obs.inspect`; docs/observability.md).
        ``report``: build a self-contained Markdown/HTML report from
        traces or a sweep directory (:mod:`repro.obs.report`).
        ``profile``: phase-span hot-spot profile of one run
        (:mod:`repro.obs.spans`; docs/performance.md).
        ``explain``: one job's annotated timeline with pass-over
        provenance (:mod:`repro.obs.explain`; docs/observability.md).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = (
        "usage: repro {sim,resume,trace,report,profile,explain} "
        "...  (repro <subcommand> --help for details)"
    )
    if not argv or argv[0] in ("-h", "--help"):
        print(usage)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "sim":
        return main(rest)
    if command == "resume":
        return _resume_main(rest)
    if command == "trace":
        from repro.obs.inspect import main as trace_main

        return trace_main(rest)
    if command == "report":
        from repro.obs.report import main as report_main

        return report_main(rest)
    if command == "profile":
        return _profile_main(rest)
    if command == "explain":
        from repro.obs.explain import main as explain_main

        return explain_main(rest)
    print(f"unknown subcommand: {command!r}\n{usage}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
