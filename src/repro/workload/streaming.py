"""Streaming workload ingestion: job streams and bounded-memory feeds.

Every simulation consumes its workload as a :class:`JobStream`: the
runner pulls items as virtual time advances, so peak memory is set by
the scheduler's queues, not the workload length (docs/scaling.md).
Each input kind has one reader or generator, and the eager entry
points collect the very path these streams yield from:

- :func:`stream_swf_workload` — an archive SWF log through the one
  reader that :func:`~repro.workload.archive.load_swf_workload`
  collects;
- :func:`stream_cwf_workload` — CWF submissions *and* ECCs as one
  time-ordered item stream, from the record-to-item path that
  :func:`~repro.workload.cwf.parse_cwf_workload` collects;
- :class:`SyntheticWorkloadStream` — the per-job draw of
  :class:`~repro.workload.generator.CWFWorkloadGenerator`, merged with
  its ECCs in time order;
- :func:`iter_jobs` — raw SWF/CWF jobs in submission order, with no
  machine-size adjustments.

Archive logs are submission-sorted apart from local swaps, so the
readers restore order with a *bounded* reorder heap of
:data:`DEFAULT_LOOKAHEAD` jobs.  Equal keys keep file order; disorder
beyond the heap raises :class:`StreamOrderError`.  A
:class:`JobStream` is single-use; its :class:`StreamSpec` rebuilds it
for checkpoint/resume.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.workload.cwf import CWFParseError, _cwf_items, iter_cwf
from repro.workload.ecc import ECC
from repro.workload.errors import WorkloadFormatError, reject
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.job import Job
from repro.workload.swf import iter_swf

#: Default reorder-buffer depth of the archive readers.  Archive logs
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
#: One reorder entry: ``(submit, job_id, seq, job)``.  ``seq`` rises in
#: file order, so equal ``(submit, job_id)`` keys keep file order and
#: the comparison never reaches the job itself.
ReorderEntry = Tuple[float, int, int, Job]


def _reorder(
    entries: Iterable[ReorderEntry], lookahead: Optional[int], source: str
) -> Iterator[ReorderEntry]:
    """Yield ``entries`` in ``(submit, job_id, seq)`` order, buffering at most ``lookahead``.

    ``None`` disables reordering entirely (trust the source order).  A
    job arriving with a key below one already yielded raises
    :class:`StreamOrderError` — silently reordering it is impossible
    without unbounded memory.
    """
    if lookahead is None:
        yield from entries
        return
    if lookahead < 1:
        raise ValueError(f"lookahead must be positive, got {lookahead}")
    heap: list[ReorderEntry] = []
    horizon: Optional[ReorderEntry] = None  # the last entry yielded
    for entry in entries:
        if horizon is not None and entry < horizon:
            submit, job_id = entry[0], entry[1]
            raise StreamOrderError(
                f"job {job_id} (submit={submit:g}) arrives "
                f"{horizon[0] - submit:g}s before already-yielded work; "
                f"disorder exceeds lookahead={lookahead}",
                source=source,
            )
        if len(heap) < lookahead:
            heapq.heappush(heap, entry)
        else:
            horizon = heapq.heappushpop(heap, entry)
            yield horizon
    heap.sort()
    yield from heap


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
    entries = ((job.submit, job.job_id, seq, job) for seq, job in enumerate(jobs))
    return (entry[3] for entry in _reorder(entries, lookahead, name))


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
    """Stream the jobs of an archive SWF log.

    The jobs are those :func:`~repro.workload.archive.load_swf_workload`
    collects — unusable records skipped, submission order restored
    within ``lookahead``, the first ``max_jobs`` kept, sizes rounded
    *up* to the granularity (a declared ``max_procs`` below the new
    size is raised to it), oversized jobs skipped, time rebased to the
    first kept submission — produced lazily, line by line, so a
    multi-year log never materializes.  The eager loader's
    :class:`~repro.workload.archive.LoadReport` is not returned; load
    the same file eagerly when an audit is needed.

    Raises:
        ValueError: when no machine size is available.
        StreamOrderError: while iterating, when disorder exceeds
            ``lookahead``.
    """
    from repro.workload.archive import LoadReport, _machine_size, _swf_jobs

    report = LoadReport()
    size = _machine_size(path, machine_size, granularity, report)
    return JobStream(
        items=_swf_jobs(
            path, report, size, granularity, max_jobs, rebase_time, strict, lookahead
        ),
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

    Items are those :func:`~repro.workload.cwf.parse_cwf_workload`
    returns, in file order (CWF files interleave commands at their
    issue times), with the same checks and the same line-numbered
    :class:`~repro.workload.cwf.CWFParseError` errors.  The stream adds
    one check: a record timed before the one preceding it is an error,
    because the runner consumes items in time order.  The reader keeps
    the id set of submitted jobs (ints only, ~40 bytes/job), still
    100x lighter than the job objects a materialized workload retains.
    """

    def generate() -> Iterator[StreamItem]:
        last_time = float("-inf")
        for lineno, item in _cwf_items(path, strict=strict):
            time = item.submit if isinstance(item, Job) else item.issue_time
            if time < last_time:
                message = (
                    f"record for job {item.job_id} at t={time:g} is out of "
                    f"order (stream is at t={last_time:g}); streaming CWF "
                    "requires time-sorted files"
                )
                reject(CWFParseError(message, source=str(path), line=lineno), strict)
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
    """The synthetic workload of :class:`CWFWorkloadGenerator`, streamed.

    Pulls jobs one at a time from the generator's own per-job draw, so
    with equal ``(config, seed)`` the streamed jobs and ECCs are
    bitwise identical to the eager workload's (sorted) lists.  ECCs
    are issued after their job's submission with unbounded exponential
    offsets, so a small heap merges them into the arrival timeline;
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
        draw = CWFWorkloadGenerator(self.config)._draw(np.random.default_rng(self.seed))
        pending: list[Tuple[float, int, int, ECC]] = []
        tie = 0
        for job, commands in draw:
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
