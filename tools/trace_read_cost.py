#!/usr/bin/env python3
"""Time the trace read-back per record on one ``paper_sweep`` rep's traces.

Writes the 72 traces of one ``paper_sweep`` rep of the end-to-end
benchmark (``benchmarks/e2e``, generator seed ``--seed``) through the
worker pool, then times, per trace record and as the median of
``--reps`` passes over all of them:

- ``read``: :func:`repro.obs.trace_io.read_trace`;
- ``replay``: :func:`repro.obs.analytics.replay` plus
  :func:`~repro.obs.analytics.recompute_metrics` on the read records;
- ``oracle``: :func:`repro.obs.analytics.validate_trace_file`, the
  benchmark's read-back of each trace against its run's metrics.

Run it from the root of the checkout to measure, so each version times
its own reader and benchmark inputs::

    PYTHONPATH=src:. python tools/trace_read_cost.py --seed 17

It prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e import workloads
from repro.experiments import parallel
from repro.experiments.cache import RunCache
from repro.obs import analytics
from repro.obs.trace_io import read_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=17, help="generator seed of the rep")
    parser.add_argument("--reps", type=int, default=5, help="timed passes per measure")
    args = parser.parse_args()

    work = Path(tempfile.mkdtemp(prefix="trace-read-cost-"))
    try:
        prepared = workloads.prepare("paper_sweep", args.seed, False, work, "timed")
        results = parallel.execute_runs(
            prepared.specs, jobs=prepared.workers, cache=RunCache.disabled()
        )
        runs = [(spec.trace_out, metrics) for spec, metrics in zip(prepared.specs, results)]
        traces = [read_trace(path) for path, _ in runs]
        n_records = sum(len(trace) for trace in traces)

        def read() -> None:
            for path, _ in runs:
                read_trace(path)

        def replay() -> None:
            for trace in traces:
                analytics.recompute_metrics(analytics.replay(trace.records, trace.meta))

        def oracle() -> None:
            for path, metrics in runs:
                analytics.validate_trace_file(path, metrics)

        out = {"seed": args.seed, "traces": len(runs), "records": n_records}
        for name, step in (("read", read), ("replay", replay), ("oracle", oracle)):
            seconds = []
            for _ in range(args.reps):
                start = time.perf_counter()
                step()
                seconds.append(time.perf_counter() - start)
            out[f"{name}_us_per_record"] = round(
                statistics.median(seconds) / n_records * 1e6, 3
            )
        print(json.dumps(out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
