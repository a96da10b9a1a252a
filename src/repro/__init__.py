"""repro — reproduction of "Scheduling Batch and Heterogeneous Jobs
with Runtime Elasticity in a Parallel Processing Environment"
(Kumar, Shae, Jamjoom — IPPS/IPDPS 2012).

The package implements the paper's schedulers (Delayed-LOS,
Hybrid-LOS and their elastic variants), the baselines they are
evaluated against (EASY backfill, LOS and their -D/-E/-DE
counterparts), and every substrate the evaluation needs: a
discrete-event simulator, a BlueGene/P-style machine model, the
SWF/CWF workload formats, the Lublin–Feitelson workload model, and an
experiment harness regenerating every figure and table of §V.

Quickstart::

    import numpy as np
    from repro import (
        CWFWorkloadGenerator, GeneratorConfig, make_scheduler, simulate,
    )

    workload = CWFWorkloadGenerator(GeneratorConfig(n_jobs=200)).generate(
        np.random.default_rng(42)
    )
    for name in ("EASY", "LOS", "Delayed-LOS"):
        metrics = simulate(workload, make_scheduler(name))
        print(name, metrics.utilization, metrics.mean_wait)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.cluster import Machine, UtilizationTracker
from repro.core import (
    ALGORITHMS,
    AdaptiveSelector,
    ConservativeBackfill,
    DelayedLOS,
    EasyBackfill,
    FCFS,
    HybridLOS,
    Scheduler,
    make_scheduler,
)
from repro.experiments import (
    ExperimentConfig,
    RunCache,
    RunSpec,
    SimulationRunner,
    calibrate_beta_arr,
    execute_runs,
    resolve_jobs,
    run_algorithms,
    simulate,
)
from repro.experiments.replicate import ReplicatedSweep, replicate_sweep
from repro.faults import FaultConfig, RetryPolicy
from repro.metrics import JobRecord, RunMetrics
from repro.metrics.breakdown import by_kind, by_outcome, by_size_class
from repro.metrics.export import records_to_csv, run_to_json, runs_to_csv, sweep_to_csv
from repro.metrics.timeline import occupancy_sparkline, render_timeline
from repro.obs import (
    ProgressEvent,
    ProgressReporter,
    Telemetry,
    TelemetrySnapshot,
    read_trace,
    write_trace,
)
from repro.sim import Simulator
from repro.workload import (
    CWFWorkloadGenerator,
    ECC,
    ECCKind,
    GeneratorConfig,
    Job,
    JobKind,
    LublinConfig,
    LublinModel,
    TwoStageSizeConfig,
    Workload,
    offered_load,
)
from repro.workload.stats import WorkloadStats, characterize
from repro.workload.transform import filter_jobs, head, merge, time_slice
from repro.workload.validate import validate_workload

__version__ = "1.23.0"

__all__ = [
    "ALGORITHMS",
    "AdaptiveSelector",
    "CWFWorkloadGenerator",
    "ConservativeBackfill",
    "DelayedLOS",
    "ECC",
    "ECCKind",
    "EasyBackfill",
    "ExperimentConfig",
    "FCFS",
    "FaultConfig",
    "GeneratorConfig",
    "HybridLOS",
    "Job",
    "JobKind",
    "JobRecord",
    "LublinConfig",
    "LublinModel",
    "Machine",
    "ProgressEvent",
    "ProgressReporter",
    "ReplicatedSweep",
    "RetryPolicy",
    "RunCache",
    "RunMetrics",
    "RunSpec",
    "Scheduler",
    "SimulationRunner",
    "Simulator",
    "Telemetry",
    "TelemetrySnapshot",
    "TwoStageSizeConfig",
    "UtilizationTracker",
    "Workload",
    "WorkloadStats",
    "__version__",
    "by_kind",
    "by_outcome",
    "by_size_class",
    "calibrate_beta_arr",
    "characterize",
    "execute_runs",
    "filter_jobs",
    "head",
    "make_scheduler",
    "merge",
    "occupancy_sparkline",
    "offered_load",
    "read_trace",
    "records_to_csv",
    "render_timeline",
    "replicate_sweep",
    "resolve_jobs",
    "run_algorithms",
    "run_to_json",
    "runs_to_csv",
    "simulate",
    "sweep_to_csv",
    "time_slice",
    "validate_workload",
    "write_trace",
]
