"""Parallel execution of independent simulation runs.

Every paper figure/table is a sweep of independent (algorithm ×
sweep-point × seed) simulations — embarrassingly parallel work.  This
module is the single choke point through which the sweep, grid,
replication and benchmark layers dispatch those runs:

- :class:`RunSpec` names one run declaratively (workload + scheduler
  knobs), so it can be pickled to a worker process or hashed into the
  run cache.  Its workload is either concrete or a
  :class:`~repro.experiments.calibrate.CalibratedWorkload` recipe that
  the worker resolves, so a sweep point ships ~1 KiB instead of its
  jobs,
- :func:`execute_runs` fans a batch of specs out over a
  ``ProcessPoolExecutor``, consulting the :class:`~repro.experiments.cache.RunCache`
  first so only cache misses are simulated.  It is the only fan-out
  layer: a sweep, grid or figure builds every (point × algorithm) run
  as one spec and reduces one ``execute_runs`` result.

Three decisions about a spec's workload live here, once each:
:func:`resolve_workload` turns it into a :class:`Workload` (memoised
per process, so the contiguous specs of one point calibrate once per
worker), :func:`spec_key` addresses it in the cache and in checkpoints
without resolving it, and :func:`_n_jobs` sizes it for the
implicit-parallelism threshold.

Determinism is the hard requirement: parallel and serial execution
produce bit-identical metrics for the same inputs.  Each run is an
isolated simulation seeded entirely by its spec, and results are
returned in submission order (``Executor.map`` semantics), never in
completion order.

Robustness (docs/resilience.md): a crashed worker process
(``BrokenProcessPool``) or a per-run wait exceeding
``REPRO_RUN_TIMEOUT`` does not abort the batch — the affected runs are
retried serially in the parent after a ``RuntimeWarning``, degrading
gracefully to the plain loop that parallelism merely accelerates.

Worker count resolution, in priority order: an explicit ``jobs=``
argument, the ``REPRO_JOBS`` environment variable, then
``os.cpu_count()``.  The serial path is used for ``jobs=1``, on
platforms without the ``fork`` start method (worker startup cost would
dwarf these millisecond-scale simulations under ``spawn``), and — when
the worker count was only implied — for batches too small to amortize
pool startup.  Nothing runs ``execute_runs`` inside a worker, so pools
never nest.

Pool startup is amortized across batches: the first parallel batch
forks a **persistent warm pool** that later same-sized batches reuse
(``REPRO_WARM_POOL=0`` restores a fresh pool per batch), and
:func:`warm_pool` pre-forks it explicitly so benchmarks can report
spin-up separately (``pool_startup_s``).  The pool is discarded
whenever reuse could change behavior or hide a failure: any worker
crash or per-run timeout (the worker may still be executing the
abandoned task), a ``KeyboardInterrupt``, or a parent-side
environment change since the workers forked (forked children snapshot
``os.environ`` — a stale ``REPRO_TRACE_VALIDATE`` must not diverge
workers from the serial path).  Batches wider than the pool are submitted in
contiguous chunks (:data:`CHUNKS_PER_WORKER` per worker) so per-future
pickling and IPC amortize; a per-run ``REPRO_RUN_TIMEOUT`` forces
one-run-per-future so the bound keeps its meaning.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import os
import time
import warnings
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, dataclass, field, fields
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.core.registry import make_scheduler
from repro.experiments.cache import RunCache, workload_digest
from repro.experiments.calibrate import CalibratedWorkload, calibrate_beta_arr
from repro.experiments.runner import SimulationRunner
from repro.faults.model import FaultConfig, RetryPolicy
from repro.metrics.records import RunMetrics
from repro.obs.analytics import ENV_TRACE_VALIDATE, validate_trace_file
from repro.obs.progress import ProgressEvent, ProgressTracker
from repro.workload.generator import Workload

#: Environment variable naming the worker count (CLI flag equivalent:
#: ``repro-sim --parallel N``).
ENV_JOBS = "REPRO_JOBS"

#: Optional per-run wait bound in seconds: when set, waiting on any
#: single worker-side run longer than this counts as a failure and the
#: run is retried serially in the parent.  Unset/non-positive = wait
#: forever (the default; simulations are deterministic and finite).
ENV_RUN_TIMEOUT = "REPRO_RUN_TIMEOUT"

#: When the worker count is merely implied (no ``jobs=``, no
#: ``REPRO_JOBS``), batches below this many *simulated* jobs run
#: serially: forking a pool costs more than it saves on tiny runs.
PARALLEL_MIN_WORK = 400

T = TypeVar("T")
R = TypeVar("R")


#: Which part of a run reads a :class:`RunSpec` field (its ``reads``
#: role): the policy (a :func:`~repro.core.registry.make_scheduler`
#: argument), the :class:`SimulationRunner` (a keyword of its
#: constructor) or the checkpoint cadence
#: (:func:`repro.durable.checkpoint.resume`).
SCHEDULER = "scheduler"
RUNNER = "runner"
CHECKPOINT = "checkpoint"

#: How a field enters :func:`spec_key` (its ``key`` role): the workload
#: by its content digest, the core knobs always, and the extension
#: knobs only when one differs from its default, so the keys of runs
#: that leave them unset stay what they were before the knobs existed.
KEY_DIGEST = "digest"
KEY_ALWAYS = "always"
KEY_WHEN_SET = "when set"


def _knob(reads: str, default: object = MISSING, *, key: Optional[str] = None,
          output: bool = False) -> Any:
    """Declare a :class:`RunSpec` field with its role.

    ``key`` is how the field enters the run key (None: never — it
    cannot change a metric).  ``output`` marks a field that makes the
    run produce a file or telemetry the cache does not hold, so a spec
    that sets it is always simulated, never served from the cache.
    """
    return field(default=default, metadata={"reads": reads, "key": key, "output": output})


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully specified by value.

    The spec carries everything :func:`execute_spec` needs to rebuild
    the scheduler and runner in another process, and everything the run
    cache needs to address the result.  Each field declares its role
    where it is declared (:func:`_knob`): which part of the run reads
    it, how it enters :func:`spec_key`, and whether it forces a
    simulation.  ``workload`` is a concrete :class:`Workload` (external
    inputs, transformed draws) or a
    :class:`~repro.experiments.calibrate.CalibratedWorkload` recipe,
    which the process running the spec resolves.
    """

    workload: Union[Workload, CalibratedWorkload] = _knob(RUNNER, key=KEY_DIGEST)
    algorithm: str = _knob(SCHEDULER, key=KEY_ALWAYS)
    max_skip_count: int = _knob(SCHEDULER, 7, key=KEY_ALWAYS)
    lookahead: Optional[int] = _knob(SCHEDULER, 50, key=KEY_ALWAYS)
    max_eccs_per_job: Optional[int] = _knob(RUNNER, None, key=KEY_ALWAYS)
    #: Optional fault model (docs/resilience.md); None = fault-free.
    faults: Optional[FaultConfig] = _knob(RUNNER, None, key=KEY_WHEN_SET)
    #: Recovery policy under faults; None = RetryPolicy defaults.
    retry: Optional[RetryPolicy] = _knob(RUNNER, None, key=KEY_WHEN_SET)
    #: Stream the run's trace to this JSONL path
    #: (docs/observability.md).  Tracing never changes metrics.
    trace_out: Optional[str] = _knob(RUNNER, None, output=True)
    #: Checkpoint this run into the given directory and, when a usable
    #: checkpoint is already there, resume from it instead of starting
    #: over (docs/resilience.md).  Checkpointing never changes metrics
    #: (the resume oracle in ``tests/durable/`` enforces bitwise
    #: equality).
    checkpoint_dir: Optional[str] = _knob(CHECKPOINT, None)
    #: Checkpoint cadence in events (None = the durable layer default).
    checkpoint_every: Optional[int] = _knob(CHECKPOINT, None)
    #: Optional wall-clock cadence in seconds.
    checkpoint_seconds: Optional[float] = _knob(CHECKPOINT, None)
    #: Profile the run with phase spans and write a Chrome trace-event
    #: JSON file here (docs/performance.md).  Spans are pure observation
    #: (the byte-identity tests enforce identical traces spans-on vs off).
    spans_out: Optional[str] = _knob(RUNNER, None, output=True)
    #: Aggregate-only phase spans (``span_*`` telemetry) without a
    #: Chrome export.  Implied by ``spans_out``.
    spans: bool = _knob(RUNNER, False, output=True)
    #: Record per-job pass-over ``decision`` records in the run's trace
    #: (docs/observability.md).  Only meaningful with ``trace_out``.
    decisions: bool = _knob(RUNNER, False)

    def knobs(self, reads: str) -> Dict[str, object]:
        """``{name: value}`` of the fields whose declared reader is ``reads``.

        ``reads`` is :data:`SCHEDULER`, :data:`RUNNER` or :data:`CHECKPOINT`.
        """
        return {f.name: getattr(self, f.name) for f in _FIELDS if f.metadata["reads"] == reads}

    @property
    def writes_output(self) -> bool:
        """Whether the run produces something only a simulation makes."""
        return any(getattr(self, f.name) != f.default for f in _OUTPUT_FIELDS)


_FIELDS = fields(RunSpec)
_OUTPUT_FIELDS = tuple(f for f in _FIELDS if f.metadata.get("output"))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > CPU count."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(ENV_JOBS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{ENV_JOBS} must be an integer, got {env!r}") from None
    return max(1, os.cpu_count() or 1)


def fork_available() -> bool:
    """Whether the cheap ``fork`` start method exists on this platform."""
    return "fork" in get_all_start_methods()


#: Recipes a process keeps resolved.  Sweep builders emit a point's
#: specs contiguously and chunks keep them together, so a small bound
#: suffices for one calibration per point per worker.
_RESOLVED_RECIPES = 4


@functools.lru_cache(maxsize=_RESOLVED_RECIPES)
def _resolve_recipe(recipe: CalibratedWorkload) -> Workload:
    return calibrate_beta_arr(recipe.config, recipe.target_load, seed=recipe.seed).workload


def resolve_workload(workload: Union[Workload, CalibratedWorkload]) -> Workload:
    """The :class:`Workload` a spec's ``workload`` stands for."""
    if isinstance(workload, CalibratedWorkload):
        return _resolve_recipe(workload)
    return workload


def spec_key(spec: RunSpec, *, version: Optional[str] = None) -> str:
    """The run's address in the cache and in checkpoints.

    Hashes the fields by their declared ``key`` role (:func:`_knob`).
    A concrete workload enters by its content
    (:func:`~repro.experiments.cache.workload_digest`), a recipe by its
    fields, without resolving it; like scheduler code, the generator
    and calibration code enter through the package ``version`` (default:
    the running one).
    """
    if version is None:
        from repro import __version__ as version
    hasher = hashlib.sha256()
    always: List[object] = []
    when_set: List[object] = []
    extended = False
    for f in _FIELDS:
        role = f.metadata["key"]
        value = getattr(spec, f.name)
        if role == KEY_DIGEST:
            if isinstance(value, CalibratedWorkload):
                digest = hashlib.sha256(repr(value).encode()).hexdigest()
            else:
                digest = workload_digest(value)
            hasher.update(digest.encode())
        elif role == KEY_ALWAYS:
            always.append(value)
        elif role == KEY_WHEN_SET:
            when_set.append(value)
            extended = extended or value != f.default
    hasher.update(repr((*always, version)).encode())
    if extended:
        hasher.update(repr(tuple(when_set)).encode())
    return hasher.hexdigest()


def _n_jobs(workload: Union[Workload, CalibratedWorkload]) -> int:
    """Jobs in a spec's workload, read without resolving a recipe."""
    if isinstance(workload, CalibratedWorkload):
        return workload.config.n_jobs
    return len(workload)


def _start(spec: RunSpec) -> SimulationRunner:
    """A fresh runner for ``spec``, built from its declared knobs."""
    policy = spec.knobs(SCHEDULER)
    knobs = spec.knobs(RUNNER)
    knobs["workload"] = resolve_workload(spec.workload)
    return SimulationRunner(scheduler=make_scheduler(policy.pop("algorithm"), **policy), **knobs)


def execute_spec(spec: RunSpec) -> RunMetrics:
    """Run one spec to completion (the worker-side entry point).

    A spec with ``checkpoint_dir`` runs through
    :func:`repro.durable.checkpoint.resume`: when the directory already
    holds a usable checkpoint *of this exact spec* (run-key validated),
    the run resumes from it instead of restarting — an unusable or
    mismatched checkpoint demotes to a fresh run with a warning — and a
    completed run deletes its checkpoints (the cache owns the result
    from then on).

    With ``REPRO_TRACE_VALIDATE`` truthy, a traced run is re-checked by
    the observability oracle (:mod:`repro.obs.analytics`): the exported
    trace is read back, the paper metrics are recomputed from it, and a
    disagreement with the returned :class:`RunMetrics` raises
    :class:`~repro.obs.analytics.TraceOracleError`.
    """
    cadence = spec.knobs(CHECKPOINT)
    directory = cadence.pop("checkpoint_dir")
    if directory is None:
        metrics = _start(spec).run()
    else:
        from repro.durable.checkpoint import resume

        metrics = resume(
            directory,
            trace_out=spec.trace_out,
            run_key=spec_key(spec),
            start=functools.partial(_start, spec),
            **cadence,
        )
    if spec.trace_out is not None and os.environ.get(
        ENV_TRACE_VALIDATE, ""
    ).strip().lower() in ("1", "true", "yes", "on"):
        validate_trace_file(spec.trace_out, metrics)
    return metrics


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> List[R]:
    """Worker-side: run one submitted chunk of items in order."""
    return [fn(item) for item in chunk]


def _effective_workers(
    jobs: Optional[int], n_tasks: int, work_hint: Optional[int]
) -> int:
    """Workers to actually use for a batch of ``n_tasks`` tasks."""
    if n_tasks < 2 or not fork_available():
        return 1
    explicit = jobs is not None or bool(os.environ.get(ENV_JOBS, "").strip())
    if not explicit and work_hint is not None and work_hint < PARALLEL_MIN_WORK:
        return 1
    return min(resolve_jobs(jobs), n_tasks)


def _pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=get_context("fork"),
    )


# ----------------------------------------------------------------------
# Persistent warm pool (docs/performance.md)
# ----------------------------------------------------------------------
#: Kill switch for the persistent worker pool: "0"/"false"/"no"/"off"
#: restores the original fresh-pool-per-batch behavior.
ENV_WARM_POOL = "REPRO_WARM_POOL"

#: Chunked submission granularity: batches larger than the worker
#: count are submitted as ~this many chunks per worker, so per-task
#: pickling/IPC overhead amortizes while load still balances.
CHUNKS_PER_WORKER = 4

_warm_pool: Optional[ProcessPoolExecutor] = None
_warm_pool_workers = 0
_warm_pool_env: Optional[Dict[str, str]] = None
_warm_pool_atexit = False


def warm_pool_enabled() -> bool:
    """Whether batches reuse one persistent pool (:data:`ENV_WARM_POOL`)."""
    return os.environ.get(ENV_WARM_POOL, "").strip().lower() not in (
        "0", "false", "no", "off",
    )


def shutdown_warm_pool(wait: bool = False) -> None:
    """Discard the persistent pool (idempotent).

    Called automatically at interpreter exit, whenever a batch sees a
    worker crash or timeout (a timed-out task may still be running in
    its worker — the pool is poisoned for reuse), and whenever the
    parent's environment changed since the workers forked.
    """
    global _warm_pool, _warm_pool_workers, _warm_pool_env
    pool = _warm_pool
    _warm_pool = None
    _warm_pool_workers = 0
    _warm_pool_env = None
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)


def _acquire_pool(workers: int) -> Tuple[ProcessPoolExecutor, bool]:
    """The pool for one batch: ``(pool, caller_owns_shutdown)``.

    With the warm pool enabled, an existing pool is reused when its
    size matches **and** the parent's environment is unchanged since
    its workers forked — forked workers snapshot ``os.environ``, so a
    parent-side change (``REPRO_TRACE_VALIDATE``, ...) silently
    diverging worker behavior from the serial path must recreate them.  A module-owned pool outlives the batch; the
    caller must call :func:`shutdown_warm_pool` instead of shutting it
    down when the batch poisoned it.
    """
    global _warm_pool, _warm_pool_workers, _warm_pool_env, _warm_pool_atexit
    if not warm_pool_enabled():
        return _pool(workers), True
    env = dict(os.environ)
    if (
        _warm_pool is not None
        and _warm_pool_workers == workers
        and _warm_pool_env == env
    ):
        return _warm_pool, False
    shutdown_warm_pool()
    _warm_pool = _pool(workers)
    _warm_pool_workers = workers
    _warm_pool_env = env
    if not _warm_pool_atexit:
        atexit.register(shutdown_warm_pool)
        _warm_pool_atexit = True
    return _warm_pool, False


def _worker_pid(_: object) -> int:
    return os.getpid()


def warm_pool(workers: Optional[int] = None) -> float:
    """Pre-fork the persistent pool; returns the spin-up seconds.

    Forks the pool's workers *now* (a round of no-op tasks forces the
    lazy executor to spawn every one), so a subsequent batch pays no
    startup cost inside its timed region.  Returns ``0.0`` when the
    right-sized pool is already warm or the warm pool is disabled —
    the benchmark records the return value as ``pool_startup_s``,
    separating amortizable spin-up from steady-state dispatch cost.
    """
    if not warm_pool_enabled() or not fork_available():
        return 0.0
    count = resolve_jobs(workers)
    if (
        _warm_pool is not None
        and _warm_pool_workers == count
        and _warm_pool_env == dict(os.environ)
    ):
        return 0.0
    started = time.perf_counter()
    pool, _ = _acquire_pool(count)
    # One task per worker slot; collecting the results guarantees all
    # forks happened (submission alone spawns processes lazily).
    list(pool.map(_worker_pid, range(count)))
    elapsed = time.perf_counter() - started
    return elapsed


def run_timeout() -> Optional[float]:
    """Per-run wait bound from ``REPRO_RUN_TIMEOUT`` (None = no bound)."""
    raw = os.environ.get(ENV_RUN_TIMEOUT, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_RUN_TIMEOUT} must be a number of seconds, got {raw!r}"
        ) from None
    return value if value > 0 else None


def _map_resilient(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    on_result: Optional[Callable[[int, R, bool], None]] = None,
) -> List[R]:
    """Order-preserving pool map that survives worker failure.

    A worker crash (``BrokenProcessPool`` — OOM-killed child, segfault
    in a native extension, ``os._exit`` in user code) or an over-long
    wait (:data:`ENV_RUN_TIMEOUT`) does not abort the batch: the
    affected items are collected and retried **serially in the parent
    process**, once, after a :class:`RuntimeWarning`.  Exceptions
    *raised by* ``fn`` are real errors and propagate unchanged — a
    deterministic failure would fail the serial retry too.

    ``on_result(index, result, retried)`` — when given — fires in the
    parent after each item's result lands (progress reporting, durable
    landing of sweep results; docs/observability.md,
    docs/resilience.md).  Events follow submission order for pooled
    results, then retry order for serially recovered ones; ``retried``
    is True for the latter.

    A ``KeyboardInterrupt`` (Ctrl-C, or SIGTERM routed through
    :func:`repro.durable.signals.sigterm_as_interrupt`) abandons the
    remaining futures without waiting — workers are told to stop and
    the interrupt propagates so the caller can record partial progress.
    """
    results: List[Optional[R]] = [None] * len(items)
    retry_indexes: List[int] = []
    timeout = run_timeout()
    pool, owns_pool = _acquire_pool(workers)
    poisoned = False
    try:
        try:
            # Chunked submission: one future per run while a per-run
            # timeout is in force (the bound applies to single runs),
            # otherwise ~CHUNKS_PER_WORKER chunks per worker so large
            # sweeps amortize pickling/IPC per future (specs sharing a
            # workload object even share its pickle within a chunk).
            if timeout is None and len(items) > workers:
                size = -(-len(items) // (workers * CHUNKS_PER_WORKER))
            else:
                size = 1
            spans = [
                range(start, min(start + size, len(items)))
                for start in range(0, len(items), size)
            ]
            futures = [
                pool.submit(_run_chunk, fn, tuple(items[i] for i in span))
                for span in spans
            ]
            try:
                for span, future in zip(spans, futures):
                    try:
                        chunk = future.result(timeout=timeout)
                    except FuturesTimeoutError:
                        future.cancel()
                        poisoned = True
                        retry_indexes.extend(span)
                    except (BrokenProcessPool, CancelledError):
                        poisoned = True
                        retry_indexes.extend(span)
                    else:
                        for offset, index in enumerate(span):
                            results[index] = chunk[offset]
                            if on_result is not None:
                                on_result(index, chunk[offset], False)
            except Exception:
                # fn raised (deterministic failure — propagates after
                # the serial-retry policy's contract): don't leave the
                # rest of the batch running behind the caller's back.
                for future in futures:
                    future.cancel()
                raise
        except KeyboardInterrupt:
            poisoned = True
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    except BrokenProcessPool:
        # The pool died while submitting or shutting down; every item
        # without a result gets the serial retry.
        poisoned = True
        done = set(index for index in range(len(items)) if results[index] is not None)
        retry_indexes = sorted(set(retry_indexes) | (set(range(len(items))) - done))
    finally:
        if owns_pool:
            pool.shutdown(wait=not poisoned, cancel_futures=poisoned)
        elif poisoned:
            # A timed-out task may still be running in its worker; a
            # poisoned pool must never serve the next batch.
            shutdown_warm_pool()
    if retry_indexes:
        warnings.warn(
            f"parallel execution failed for {len(retry_indexes)} of "
            f"{len(items)} runs (worker crash or timeout); retrying "
            "serially in the parent process",
            RuntimeWarning,
            stacklevel=3,
        )
        for index in retry_indexes:
            results[index] = fn(items[index])
            if on_result is not None:
                on_result(index, results[index], True)
    return results  # type: ignore[return-value]  # every slot is filled


class SweepInterrupted(KeyboardInterrupt):
    """A sweep was interrupted; it reports how many runs finished.

    Raised by :func:`execute_runs` whenever a ``KeyboardInterrupt`` (or
    a SIGTERM routed through
    :func:`repro.durable.signals.sigterm_as_interrupt`) arrives
    mid-batch.  With the run cache enabled every completed spec is
    already stored, so re-invoking the same sweep re-runs only the
    remainder.  Being a ``KeyboardInterrupt``, it still reaches callers
    that catch one.

    Attributes:
        completed: Specs finished (cache hits + fresh runs landed).
        total: Specs in the batch.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(completed, total)
        self.completed = completed
        self.total = total


def execute_runs(
    specs: Sequence[RunSpec],
    *,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> List[RunMetrics]:
    """Execute a batch of runs, in parallel where it pays off.

    Cache hits are returned without simulating; misses are fanned out
    over the pool and stored back.  Results align with ``specs`` by
    index regardless of completion order, so the output is identical
    to a serial loop — the determinism tests enforce this bit-for-bit.

    Each fresh result is stored to the cache **as it lands**, so the
    cache is the sweep's completion record: a crash or kill mid-batch
    loses at most the runs still in flight, and re-running the same
    batch re-simulates only the remainder.  An interrupt surfaces as
    :class:`SweepInterrupted` (a ``KeyboardInterrupt``) with the
    completed/total counts.

    Specs that set an ``output`` field (:attr:`RunSpec.writes_output`:
    a trace file, a spans profile or span telemetry) are always
    simulated, never served from the cache: a hit would skip the run
    and leave no file behind.  Their metrics are still stored back.

    Args:
        specs: The runs to perform.
        jobs: Worker count override (None = ``REPRO_JOBS`` / CPU count).
        cache: Run cache (None = configure from the environment, which
            means disabled unless ``REPRO_CACHE=1``).
        progress: Optional callback fired in the parent process with a
            :class:`~repro.obs.progress.ProgressEvent` after every run
            resolves (cache hit, simulation, or serial retry).  Purely
            observational — results are identical with or without it.
    """
    specs = list(specs)
    if cache is None:
        cache = RunCache.from_env()
    tracker = ProgressTracker(len(specs), progress) if progress is not None else None
    results: List[Optional[RunMetrics]] = [None] * len(specs)
    keys: List[Optional[str]] = [None] * len(specs)
    pending: List[int] = []
    for index, spec in enumerate(specs):
        if cache.enabled:
            keys[index] = spec_key(spec)
            if not spec.writes_output:
                hit = cache.get(keys[index])
                if hit is not None:
                    results[index] = hit
                    if tracker is not None:
                        tracker.hit()
                    continue
        pending.append(index)

    def _land(position: int, metrics: RunMetrics, retried: bool) -> None:
        # Fires as each fresh result arrives: persist before moving on,
        # so an interrupt loses only the runs still in flight.
        index = pending[position]
        results[index] = metrics
        key = keys[index]
        if key is not None:
            cache.put(key, metrics)
        if tracker is not None:
            tracker.ran(retried=retried)

    try:
        work_hint = sum(_n_jobs(specs[index].workload) for index in pending)
        workers = _effective_workers(jobs, len(pending), work_hint)
        if workers > 1:
            _map_resilient(
                execute_spec, [specs[index] for index in pending], workers, _land
            )
        else:
            for position, index in enumerate(pending):
                _land(position, execute_spec(specs[index]), False)
    except KeyboardInterrupt:
        completed = sum(1 for r in results if r is not None)
        raise SweepInterrupted(completed, len(specs)) from None
    return results  # type: ignore[return-value]  # every slot is filled


__all__ = [
    "CHECKPOINT",
    "CHUNKS_PER_WORKER",
    "ENV_JOBS",
    "ENV_RUN_TIMEOUT",
    "ENV_WARM_POOL",
    "KEY_ALWAYS",
    "KEY_DIGEST",
    "KEY_WHEN_SET",
    "PARALLEL_MIN_WORK",
    "RUNNER",
    "RunSpec",
    "SCHEDULER",
    "SweepInterrupted",
    "execute_runs",
    "execute_spec",
    "fork_available",
    "resolve_jobs",
    "resolve_workload",
    "run_timeout",
    "shutdown_warm_pool",
    "spec_key",
    "warm_pool",
    "warm_pool_enabled",
]
