"""Streaming workload ingestion: lazy readers and bounded-memory feeds.

Eager loading (:func:`repro.workload.archive.load_swf_workload`,
:meth:`CWFWorkloadGenerator.generate`) materializes every job before
the simulation starts — fine at the paper's ``N_J = 500``, prohibitive
at archive scale (a multi-year SWF log holds 10\\ :sup:`5`–10\\
:sup:`6` jobs).  This module provides the lazy counterparts
(docs/scaling.md):

- :func:`iter_jobs` — generator-based SWF/CWF job reader with a
  *bounded lookahead* reorder buffer, yielding jobs in submission
  order while holding at most ``lookahead`` jobs in memory;
- :func:`stream_swf_workload` — the streaming analogue of
  :func:`~repro.workload.archive.load_swf_workload` (same filtering
  and granularity snapping, applied per record) returning a
  :class:`JobStream`;
- :func:`stream_cwf_workload` — CWF submissions *and* ECCs as one
  time-ordered item stream;
- :class:`SyntheticWorkloadStream` — the streaming twin of
  :class:`~repro.workload.generator.CWFWorkloadGenerator`: identical
  RNG consumption, so the first ``n`` streamed jobs are *bitwise
  identical* to an eager ``generate()`` with the same seed (the
  streaming-vs-eager property tests pin this).

A :class:`JobStream` is single-use: the runner consumes it once,
pulling items as virtual time advances, so peak memory is set by the
scheduler's queues — not the workload length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.workload.cwf import CWFParseError, iter_cwf
from repro.workload.ecc import ECC
from repro.workload.errors import WorkloadFormatError
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.job import Job
from repro.workload.swf import iter_swf

#: Default reorder-buffer depth for :func:`iter_jobs`.  Archive logs
#: are submission-sorted apart from occasional local swaps; 512 jobs
#: of slack absorbs every known case while keeping memory trivial.
DEFAULT_LOOKAHEAD = 512

#: One streamed item: a job submission or an elastic control command.
StreamItem = Union[Job, ECC]


class StreamOrderError(WorkloadFormatError):
    """A record was more out-of-order than the lookahead can absorb.

    Raised when a job's submission time precedes one already yielded —
    i.e. the disorder in the source exceeds the reorder buffer.  Retry
    with a larger ``lookahead`` or repair the log.
    """


# ----------------------------------------------------------------------
# Bounded-lookahead reordering
# ----------------------------------------------------------------------
def _reorder(
    jobs: Iterable[Job], lookahead: Optional[int], source: str
) -> Iterator[Job]:
    """Yield ``jobs`` in ``(submit, job_id)`` order via a bounded heap.

    Holds at most ``lookahead`` jobs; ``None`` disables reordering
    entirely (trust the source order).  A job arriving with a submit
    time earlier than one already yielded raises
    :class:`StreamOrderError` — silently reordering it is impossible
    without unbounded memory.
    """
    if lookahead is None:
        yield from jobs
        return
    if lookahead < 1:
        raise ValueError(f"lookahead must be positive, got {lookahead}")
    heap: list[Tuple[float, int, Job]] = []
    horizon: Optional[Tuple[float, int]] = None
    for job in jobs:
        key = (job.submit, job.job_id)
        if horizon is not None and key < horizon:
            raise StreamOrderError(
                f"job {job.job_id} (submit={job.submit:g}) arrives "
                f"{horizon[0] - job.submit:g}s before already-yielded work; "
                f"disorder exceeds lookahead={lookahead}",
                source=source,
            )
        heapq.heappush(heap, (job.submit, job.job_id, job))
        if len(heap) > lookahead:
            submit, job_id, head = heapq.heappop(heap)
            horizon = (submit, job_id)
            yield head
    while heap:
        yield heapq.heappop(heap)[2]


def iter_jobs(
    source: Union[str, Path],
    *,
    fmt: Optional[str] = None,
    strict: bool = True,
    lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
) -> Iterator[Job]:
    """Lazily yield jobs from an SWF or CWF file in submission order.

    The streaming counterpart of ``[r.to_job() for r in read_swf(...)]``:
    memory is bounded by ``lookahead`` (the reorder buffer), not the
    file length.  CWF ECC lines are skipped — use
    :func:`stream_cwf_workload` when commands matter.

    Args:
        source: ``.swf``/``.cwf`` path (``.gz`` transparently ok).
        fmt: ``"swf"`` or ``"cwf"``; inferred from the suffix when
            omitted.
        strict: Malformed lines raise (default) or are skipped with a
            warning, exactly as in the eager readers.  Records that
            parse but make no usable job (no runtime/processors) are
            treated the same way.
        lookahead: Reorder-buffer depth; ``None`` trusts file order.

    Raises:
        StreamOrderError: when disorder exceeds ``lookahead``.
        ValueError: for an unrecognized format.
    """
    name = str(source)
    kind = fmt or _infer_format(name)
    if kind == "swf":
        records = iter_swf(source, strict=strict)
        jobs = _records_to_jobs(records, strict=strict, source=name)
    elif kind == "cwf":
        records = iter_cwf(source, strict=strict)
        jobs = _records_to_jobs(
            (r for r in records if r.is_submission), strict=strict, source=name
        )
    else:
        raise ValueError(f"unrecognized workload format {kind!r} for {name}")
    return _reorder(jobs, lookahead, name)


def _infer_format(name: str) -> str:
    stem = name[:-3] if name.endswith(".gz") else name
    suffix = Path(stem).suffix.lower().lstrip(".")
    if suffix in ("swf", "cwf"):
        return suffix
    raise ValueError(
        f"cannot infer workload format from {name!r}; pass fmt='swf' or 'cwf'"
    )


def _records_to_jobs(records, *, strict: bool, source: str) -> Iterator[Job]:
    """Map parsed records to jobs, honouring strict/skip semantics."""
    import warnings

    for record in records:
        try:
            yield record.to_job()
        except ValueError as exc:  # SWF/CWFParseError and Job-constructor errors
            if strict:
                raise
            warnings.warn(
                f"{source}: skipping unusable record for job {record.job_id}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )


# ----------------------------------------------------------------------
# Job streams
# ----------------------------------------------------------------------
@dataclass
class JobStream:
    """A single-pass, time-ordered workload feed for the runner.

    ``items`` yields :class:`~repro.workload.job.Job` submissions and
    :class:`~repro.workload.ecc.ECC` commands with non-decreasing event
    times (a job's time is its ``submit``, an ECC's its
    ``issue_time``); every ECC follows its job's submission.  The
    runner admits a small window of upcoming items, a whole instant at
    a time, and pulls more as items fire, so the event heap and job
    population stay bounded by the live set.

    ``n_jobs_hint`` is advisory (progress displays); streams of
    unknown length leave it ``None``.

    ``spec`` — when present — is the stream's *recipe*: a small
    picklable value object whose ``build()`` returns a fresh,
    identical stream.  Streams themselves are single-use generators
    and cannot be pickled; the spec is what a checkpoint persists so a
    resumed run can rebuild the iterator and fast-forward to the
    recorded position (:mod:`repro.durable.checkpoint`).  All three
    stream constructors in this module attach one; hand-rolled streams
    without a spec simply cannot be checkpointed mid-stream.
    """

    items: Iterable[StreamItem]
    machine_size: int = 320
    granularity: int = 1
    description: str = ""
    n_jobs_hint: Optional[int] = None
    spec: Optional["StreamSpec"] = None

    def __iter__(self) -> Iterator[StreamItem]:
        return iter(self.items)


class StreamSpec:
    """Base class for rebuildable stream recipes (checkpoint/resume).

    Subclasses are small frozen dataclasses of primitives — picklable
    by construction — whose :meth:`build` deterministically recreates
    the same :class:`JobStream` item-for-item.
    """

    def build(self) -> JobStream:  # pragma: no cover - abstract
        raise NotImplementedError

    def __iter__(self) -> Iterator[StreamItem]:
        """A fresh feed of the stream this spec describes."""
        return iter(self.build())


@dataclass(frozen=True)
class SWFStreamSpec(StreamSpec):
    """Recipe for :func:`stream_swf_workload` (same arguments)."""

    path: str
    machine_size: Optional[int] = None
    granularity: int = 1
    max_jobs: Optional[int] = None
    rebase_time: bool = True
    strict: bool = True
    lookahead: Optional[int] = DEFAULT_LOOKAHEAD

    def build(self) -> JobStream:
        return stream_swf_workload(
            self.path,
            machine_size=self.machine_size,
            granularity=self.granularity,
            max_jobs=self.max_jobs,
            rebase_time=self.rebase_time,
            strict=self.strict,
            lookahead=self.lookahead,
        )


@dataclass(frozen=True)
class CWFStreamSpec(StreamSpec):
    """Recipe for :func:`stream_cwf_workload` (same arguments)."""

    path: str
    machine_size: int = 320
    granularity: int = 1
    strict: bool = True

    def build(self) -> JobStream:
        return stream_cwf_workload(
            self.path,
            machine_size=self.machine_size,
            granularity=self.granularity,
            strict=self.strict,
        )


@dataclass(frozen=True)
class SyntheticStreamSpec(StreamSpec):
    """Recipe for :meth:`SyntheticWorkloadStream.stream`."""

    config: "GeneratorConfig"
    seed: int = 0

    def build(self) -> JobStream:
        return SyntheticWorkloadStream(self.config, self.seed).stream()


def stream_swf_workload(
    path: Union[str, Path],
    machine_size: Optional[int] = None,
    granularity: int = 1,
    max_jobs: Optional[int] = None,
    rebase_time: bool = True,
    strict: bool = True,
    lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
) -> JobStream:
    """Streaming analogue of :func:`~repro.workload.archive.load_swf_workload`.

    Applies the same per-record adjustments — granularity snapping
    (sizes rounded *up*), oversized-job and unusable-record skipping,
    optional time rebasing to the first kept submission — lazily, so a
    multi-year log never materializes.  There is no
    :class:`~repro.workload.archive.LoadReport` (it would require the
    full scan the streaming path exists to avoid); pass the same file
    to the eager loader when an audit is needed.

    Raises:
        ValueError: when no machine size is available.
    """
    from repro.workload.archive import read_header_max_procs

    size = machine_size or read_header_max_procs(path)
    if size is None:
        raise ValueError(f"{path}: no MaxProcs header; pass machine_size explicitly")
    if size % granularity != 0:
        raise ValueError(
            f"machine size {size} is not a multiple of granularity {granularity}"
        )

    def generate() -> Iterator[Job]:
        kept = 0
        origin: Optional[float] = None
        for job in iter_jobs(path, fmt="swf", strict=strict, lookahead=lookahead):
            if max_jobs is not None and kept >= max_jobs:
                return
            num = job.num
            if num % granularity != 0:
                num = ((num + granularity - 1) // granularity) * granularity
            if num > size:
                continue
            if rebase_time and origin is None:
                origin = job.submit
            shift = origin or 0.0
            if num != job.num or shift:
                job = Job(
                    job_id=job.job_id,
                    submit=job.submit - shift,
                    num=num,
                    estimate=job.original_estimate,
                    actual=job.actual,
                    kind=job.kind,
                    cancel_at=None if job.cancel_at is None else job.cancel_at - shift,
                )
            kept += 1
            yield job

    return JobStream(
        items=generate(),
        machine_size=size,
        granularity=granularity,
        description=f"SWF stream {Path(path).name}",
        n_jobs_hint=max_jobs,
        spec=SWFStreamSpec(
            path=str(path),
            machine_size=machine_size,
            granularity=granularity,
            max_jobs=max_jobs,
            rebase_time=rebase_time,
            strict=strict,
            lookahead=lookahead,
        ),
    )


def stream_cwf_workload(
    path: Union[str, Path],
    machine_size: int = 320,
    granularity: int = 1,
    strict: bool = True,
) -> JobStream:
    """Stream a CWF file as time-ordered submissions + ECCs.

    The streaming analogue of
    :func:`~repro.workload.cwf.parse_cwf_workload`: items come out in
    file order (CWF files interleave commands at their issue times),
    and an ECC referencing a job id that has not been submitted yet
    raises :class:`~repro.workload.cwf.CWFParseError` — with the
    memory-relevant difference that only the *live* id set of recently
    seen submissions is conceptually needed; this reader keeps the full
    id set (ints only, ~40 bytes/job), which is still 100x lighter
    than the job objects a materialized workload retains.
    """

    def generate() -> Iterator[StreamItem]:
        import warnings

        seen: set[int] = set()
        last_time = float("-inf")
        for record in iter_cwf(path, strict=strict):
            try:
                if record.is_submission:
                    item: StreamItem = record.to_job()
                    time = item.submit
                    if item.job_id in seen:
                        raise ValueError(f"duplicate submission for job {item.job_id}")
                    seen.add(item.job_id)
                else:
                    if record.job_id not in seen:
                        raise ValueError(
                            f"ECC references unknown job {record.job_id} "
                            "(submissions must precede their ECCs)"
                        )
                    item = record.to_ecc()
                    time = item.issue_time
                if time < last_time:
                    raise ValueError(
                        f"record for job {record.job_id} at t={time:g} is out of "
                        f"order (stream is at t={last_time:g}); streaming CWF "
                        "requires time-sorted files"
                    )
            except ValueError as exc:
                error = CWFParseError(str(exc), source=str(path))
                if strict:
                    raise error from exc
                warnings.warn(
                    f"skipping malformed record: {error}", RuntimeWarning, stacklevel=2
                )
                continue
            last_time = time
            yield item

    return JobStream(
        items=generate(),
        machine_size=machine_size,
        granularity=granularity,
        description=f"CWF stream {Path(path).name}",
        spec=CWFStreamSpec(
            path=str(path),
            machine_size=machine_size,
            granularity=granularity,
            strict=strict,
        ),
    )


# ----------------------------------------------------------------------
# Streaming synthetic generation
# ----------------------------------------------------------------------
@dataclass
class SyntheticWorkloadStream:
    """Streaming twin of :class:`~repro.workload.generator.CWFWorkloadGenerator`.

    Draws jobs one at a time with exactly the RNG consumption pattern
    of the eager ``generate()`` — substreams spawned in the same
    order, arrivals advanced through the same quota state machine —
    so with equal ``(config, seed)`` the streamed jobs and ECCs are
    bitwise identical to the eager workload's (sorted) lists.  ECCs
    are issued after their job's submission with unbounded exponential
    offsets, so a small heap reorders them into the arrival timeline;
    its size is bounded by the number of commands still pending at any
    instant (observed: a few dozen at ``P_E = 0.2``), not by
    ``n_jobs``.
    """

    config: GeneratorConfig
    seed: int = 0

    def stream(self) -> JobStream:
        """One fresh single-pass :class:`JobStream` over the workload."""
        cfg = self.config
        return JobStream(
            items=self._generate(),
            machine_size=cfg.machine_size,
            granularity=cfg.size.granularity,
            description=(
                f"CWF synthetic stream: N={cfg.n_jobs} P_S={cfg.size.p_small:g} "
                f"P_D={cfg.p_dedicated:g} P_E={cfg.p_extend:g} "
                f"P_R={cfg.p_reduce:g} beta_arr={cfg.lublin.beta_arr:g}"
            ),
            n_jobs_hint=cfg.n_jobs,
            spec=SyntheticStreamSpec(config=cfg, seed=self.seed),
        )

    # ------------------------------------------------------------------
    def _generate(self) -> Iterator[StreamItem]:
        cfg = self.config
        generator = CWFWorkloadGenerator(cfg)
        rng = np.random.default_rng(self.seed)
        arrival_rng, attr_rng, ecc_rng = rng.spawn(3)
        pending: list[Tuple[float, int, int, ECC]] = []
        tie = 0
        for index, arrival in enumerate(
            _iter_arrivals(generator._lublin, cfg.n_jobs, arrival_rng), start=1
        ):
            job = generator._generate_job(index, arrival, attr_rng)
            commands = generator._generate_eccs(job, ecc_rng)
            # Commands sort by (issue_time, job_id) like the eager
            # Workload does.  Release earlier jobs' commands due by this
            # submission *before* the job, but push the job's own ones
            # only *after* yielding it: an ECC rounded onto its job's
            # submit instant must still follow the submission.
            while pending and pending[0][0] <= job.submit:
                yield heapq.heappop(pending)[3]
            yield job
            for ecc in commands:
                tie += 1
                heapq.heappush(pending, (ecc.issue_time, ecc.job_id, tie, ecc))
        while pending:
            yield heapq.heappop(pending)[3]


def _iter_arrivals(
    lublin, count: int, rng: np.random.Generator
) -> Iterator[float]:
    """Incremental replica of :meth:`LublinModel.sample_arrivals`.

    Same substream spawns, same draw order, same quota/spill logic —
    one arrival at a time instead of a materialized list.  Kept next
    to the streaming generator (its only caller); the eager method is
    the reference and a property test pins their equality.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    from repro.workload.lublin import SECONDS_PER_HOUR

    gap_rng, quota_rng = rng.spawn(2)
    now = 0.0
    interval_index = 0
    quota = lublin._interval_quota(quota_rng)
    admitted = 0
    produced = 0
    while produced < count:
        now += lublin.sample_gap(now, gap_rng)
        if lublin.config.quota_enabled:
            idx = int(now // SECONDS_PER_HOUR)
            if idx > interval_index:
                interval_index = idx
                quota = lublin._interval_quota(quota_rng)
                admitted = 0
            if admitted >= quota:
                now = (interval_index + 1) * SECONDS_PER_HOUR
                interval_index += 1
                quota = lublin._interval_quota(quota_rng)
                admitted = 0
            admitted += 1
        produced += 1
        yield now


__all__ = [
    "CWFStreamSpec",
    "DEFAULT_LOOKAHEAD",
    "JobStream",
    "StreamItem",
    "StreamOrderError",
    "StreamSpec",
    "SWFStreamSpec",
    "SyntheticStreamSpec",
    "SyntheticWorkloadStream",
    "iter_jobs",
    "stream_cwf_workload",
    "stream_swf_workload",
]
