#!/usr/bin/env python3
"""Space continuity: what the flat BlueGene model hides.

The paper simulates BlueGene/P as a flat processor pool, but real BG
partitions must be contiguous (its own §VI future-work discussion).
This example:

1. schedules a workload on the paper's flat machine with Delayed-LOS,
2. replays the resulting schedule onto a 1-D contiguous-partition
   machine, first-fit,
3. shows where external fragmentation would have broken the schedule,
   and how Krevat-style migration (compaction) repairs it,
4. renders the machine occupancy timeline for visual inspection.

Run:
    python examples/contiguity_study.py
"""

import numpy as np

from repro import (
    CWFWorkloadGenerator,
    GeneratorConfig,
    make_scheduler,
    render_timeline,
    simulate,
)
from repro.cluster.partition import FragmentationError, PartitionedMachine


def replay(metrics, machine_size, granularity, migrate):
    """Replay a finished schedule under the contiguity constraint."""
    events = []
    for record in metrics.records:
        events.append((record.start, 1, "start", record))
        events.append((record.finish, 0, "finish", record))
    events.sort(key=lambda e: (e[0], e[1], e[3].job_id))

    machine = PartitionedMachine(total=machine_size, granularity=granularity)
    failures, migrations = [], 0
    for time, _, kind, record in events:
        if kind == "finish":
            if machine.span_of(record.job_id) is not None:
                machine.release(record.job_id)
            continue
        try:
            machine.allocate(record.job_id, record.num)
        except FragmentationError:
            if migrate:
                migrations += machine.compact()
                machine.allocate(record.job_id, record.num)
            else:
                failures.append((time, record.job_id, record.num))
    return failures, migrations


def main() -> None:
    config = GeneratorConfig(n_jobs=300)
    workload = CWFWorkloadGenerator(config).generate(np.random.default_rng(61))
    metrics = simulate(workload, make_scheduler("Delayed-LOS", max_skip_count=7))
    print(
        f"flat-machine schedule: {metrics.n_jobs} jobs, "
        f"utilization {metrics.utilization:.3f}, mean wait {metrics.mean_wait:.0f}s\n"
    )

    failures, _ = replay(metrics, workload.machine_size, workload.granularity, migrate=False)
    print(
        f"contiguous replay WITHOUT migration: {len(failures)} allocations "
        f"({len(failures) / metrics.n_jobs:.1%}) blocked by fragmentation"
    )
    for time, job_id, num in failures[:5]:
        print(f"  t={time:>8.0f}s  job {job_id} ({num} procs) had no contiguous run")
    if len(failures) > 5:
        print(f"  ... and {len(failures) - 5} more")

    rescued, migrations = replay(
        metrics, workload.machine_size, workload.granularity, migrate=True
    )
    print(
        f"\ncontiguous replay WITH migration: {len(rescued)} failures, "
        f"{migrations} job migrations performed (Krevat et al. [8]'s result: "
        "migration recovers the flat model's schedule)"
    )

    # The busy row integrates the completion records: exact here, where
    # no attempt failed and no job changed size.
    print("\nmachine occupancy (first 30 jobs):")
    print(render_timeline(metrics.records[:30], workload.machine_size, max_rows=30))


if __name__ == "__main__":
    main()
