"""``W^b`` — the FIFO queue of waiting batch jobs.

Invariant (Notations box): ``w_1.arr <= w_2.arr <= ... <= w_B.arr``.
One exception is built into the paper itself: Algorithm 3 moves a due
dedicated job *to the head* of the batch queue regardless of arrival
order, so the queue supports an explicit :meth:`push_head` alongside
the arrival-ordered :meth:`push`.

Representation (docs/performance.md, "the streaming-scale cliff"):
every queued job holds an integer **order token** — tail pushes take
increasing tokens, head pushes decreasing ones — so ascending token
order *is* FIFO order.  Three indexes hang off the tokens:

- ``_order`` — the sorted live tokens (queue order; head at index 0),
- ``_by_token``/``_index`` — token ↔ job maps giving O(1) membership
  and O(log B) :meth:`remove` instead of the old O(B) deque scan
  (under saturation the backlog depth grows with the workload length,
  which made every mid-queue removal superlinear in total job count),
- ``_by_size`` — one bucket per processor count (≤10 at the paper's
  32-processor granularity): the ascending tokens of its jobs and a
  parallel column of their cached estimates.  The buckets answer
  :meth:`first_backfill`, EASY's backfill question, with one C-level
  filter per bucket instead of a Python loop over the backlog, and
  :meth:`any_fits`, the reservation policies' fit gate, with one
  token comparison per bucket.

A job's indexed size or cached estimate goes stale when an ECC moves
``job.num`` (EP/RP) or ``job.estimate`` (ET/RT) *while queued* (the
ECC processor mutates the job in place); the runner reports that
through :meth:`reindex` so the index never lies.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress, islice, repeat
from operator import add, le
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.workload.job import Job, JobState


class BatchQueue:
    """FIFO waiting queue of batch jobs with arrival-order checking."""

    def __init__(self) -> None:
        #: Live order tokens, ascending == FIFO order (head first).
        self._order: List[int] = []
        #: token -> queued job.
        self._by_token: Dict[int, Job] = {}
        #: job_id -> (token, indexed processor count).  The size is
        #: recorded at insertion so removal never trusts a ``job.num``
        #: that an ECC may have moved without :meth:`reindex`.
        self._index: Dict[int, Tuple[int, int]] = {}
        #: processor count -> (ascending tokens of queued jobs that
        #: size, their estimates at the same positions).
        self._by_size: Dict[int, Tuple[List[int], List[float]]] = {}
        self._next_tail = 0
        self._next_head = -1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Job]:
        by_token = self._by_token
        return (by_token[token] for token in self._order)

    def __bool__(self) -> bool:
        return bool(self._order)

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._index

    @property
    def head(self) -> Optional[Job]:
        """The paper's ``w_1^b`` (None when empty)."""
        return self._by_token[self._order[0]] if self._order else None

    def jobs(self) -> List[Job]:
        """Snapshot of the queue in FIFO order."""
        by_token = self._by_token
        return [by_token[token] for token in self._order]

    def first_backfill(
        self,
        max_num: int,
        now: float,
        reservations: Sequence[Tuple[float, int]],
    ) -> Tuple[Optional[Job], int]:
        """The first queued job that may start now, and the scan's cost.

        Picks the first job in queue order with ``num <= max_num`` that,
        for every reservation ``(fret, frec)``, fits its spare
        capacity (``num <= frec``) or ends by its start
        (``now + estimate <= fret``, the scan's own float test); None
        when no job does.  ``attempts`` counts what a queue-order scan
        of the jobs with ``num <= max_num`` visits: those ahead of the
        pick plus the pick, or all of them when nothing qualifies.
        Per size bucket the candidate is the head when the size fits
        every ``frec``, else the first cached estimate that ends in
        time, found by a C-level filter cut off at the best token yet.
        """
        unset = best = self._next_tail  # above every live token
        fitting: List[List[int]] = []
        for size, (tokens, estimates) in self._by_size.items():
            if size > max_num:
                continue
            fitting.append(tokens)
            if tokens[0] > best:
                continue
            limit = math.inf  # no reservation this size must end before
            for fret, frec in reservations:
                if size > frec and fret < limit:
                    limit = fret
            if limit == math.inf:
                best = tokens[0]
            else:
                ends = map(add, repeat(now), islice(estimates, bisect_left(tokens, best)))
                best = next(compress(tokens, map(le, ends, repeat(limit))), best)
        ahead = sum(map(bisect_left, fitting, repeat(best)))
        if best == unset:
            return None, ahead
        return self._by_token[best], ahead + 1

    def any_fits(self, free: int, lookahead: Optional[int] = None) -> bool:
        """Whether any of the first ``lookahead`` queued jobs has ``num <= free``.

        ``None`` means the whole queue.  The window edge is the token
        of the ``lookahead``-th queued job, and a size bucket answers
        yes when its size fits and its first token is at or before the
        edge: O(buckets), not a walk over the window.  This is the fit
        gate of the reservation policies (docs/performance.md): with no
        window job narrow enough, no reservation can change their
        answer.

        Raises:
            ValueError: if ``lookahead`` is below 1.
        """
        order = self._order
        if not order:
            return False
        if lookahead is None or lookahead >= len(order):
            edge = order[-1]
        elif lookahead >= 1:
            edge = order[lookahead - 1]
        else:
            raise ValueError(f"lookahead must be at least 1, got {lookahead}")
        for size, (tokens, _) in self._by_size.items():
            if size <= free and tokens[0] <= edge:
                return True
        return False

    # ------------------------------------------------------------------
    def _file(self, num: int, token: int, estimate: float) -> None:
        bucket = self._by_size.get(num)
        if bucket is None:
            self._by_size[num] = ([token], [estimate])
            return
        tokens, estimates = bucket
        at = bisect_left(tokens, token)
        tokens.insert(at, token)
        estimates.insert(at, estimate)

    def _unfile(self, num: int, token: int) -> None:
        tokens, estimates = self._by_size[num]
        if len(tokens) == 1:
            del self._by_size[num]
            return
        at = bisect_left(tokens, token)
        del tokens[at]
        del estimates[at]

    def _insert(self, job: Job, token: int, at_head: bool) -> None:
        if at_head:
            self._order.insert(0, token)
        else:
            self._order.append(token)
        self._by_token[token] = job
        self._index[job.job_id] = (token, job.num)
        self._file(job.num, token, job.estimate)

    def push(self, job: Job) -> None:
        """Append an arriving batch job (FIFO position).

        Resets ``scount`` — a job starts with zero skips — and flips
        the job to ``QUEUED``.

        Raises:
            ValueError: if the job would violate arrival ordering by
                more than head-promotion allows (i.e. arrivals must be
                fed in submission order).
        """
        if self._order:
            last = self._by_token[self._order[-1]]
            if job.submit < last.effective_arrival():
                raise ValueError(
                    f"job {job.job_id} (arr={job.submit}) arrives before queue tail "
                    f"(arr={last.effective_arrival()}); feed arrivals in order"
                )
        job.scount = 0
        job.state = JobState.QUEUED
        token = self._next_tail
        self._next_tail += 1
        self._insert(job, token, at_head=False)

    def push_head(self, job: Job) -> None:
        """Prepend a job (Algorithm 3's dedicated-job promotion)."""
        job.state = JobState.QUEUED
        token = self._next_head
        self._next_head -= 1
        self._insert(job, token, at_head=True)

    def push_requeue(self, job: Job, now: float) -> None:
        """Re-enqueue a failed/evicted job at the tail (retry policy).

        The job's *effective arrival* becomes ``now``, so FIFO ordering
        by effective arrival is preserved: every later push happens at
        a simulation time ``>= now``.  The skip count resets — a
        restarted job starts a fresh Delayed-LOS skip budget.
        """
        if self._order:
            last = self._by_token[self._order[-1]]
            if now < last.effective_arrival():
                raise ValueError(
                    f"job {job.job_id} requeued at t={now} before queue tail "
                    f"(arr={last.effective_arrival()})"
                )
        job.requeued_at = now
        job.scount = 0
        job.state = JobState.QUEUED
        token = self._next_tail
        self._next_tail += 1
        self._insert(job, token, at_head=False)

    def remove(self, job: Job) -> None:
        """Remove a specific job (selected mid-queue by the DP).

        Raises:
            ValueError: when the job is not queued.
        """
        entry = self._index.pop(job.job_id, None)
        if entry is None:
            raise ValueError(f"job {job.job_id} is not in the batch queue")
        token, indexed_num = entry
        del self._order[bisect_left(self._order, token)]
        del self._by_token[token]
        self._unfile(indexed_num, token)

    def reindex(self, job: Job) -> None:
        """Re-file a queued job whose ``num`` or ``estimate`` an ECC moved.

        The ECC processor mutates ``job.num`` (EP/RP) and
        ``job.estimate`` (ET/RT) in place on *queued* jobs; the runner
        calls this afterwards so the size buckets and the estimate
        column keep matching reality.  A no-op for jobs not in the
        queue (dedicated-queue citizens, pending jobs).
        """
        entry = self._index.get(job.job_id)
        if entry is None:
            return
        token, indexed_num = entry
        self._unfile(indexed_num, token)
        self._file(job.num, token, job.estimate)
        self._index[job.job_id] = (token, job.num)

    # ------------------------------------------------------------------
    # Pickling (docs/resilience.md): checkpoints serialize the whole
    # runner.  Persist the ordered job list and rebuild the token
    # indexes on load — tokens are renumbered but order, the only thing
    # decisions ever read, is preserved exactly.
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        return {"jobs": self.jobs()}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__()
        if "jobs" in state:
            jobs = state["jobs"]
        else:
            # Pre-index checkpoints stored the raw deque.
            jobs = list(state.get("_queue", ()))
        for job in jobs:  # type: ignore[union-attr]
            token = self._next_tail
            self._next_tail += 1
            self._insert(job, token, at_head=False)

    # ------------------------------------------------------------------
    def check_invariants(self, allow_promoted_head: bool = True) -> None:
        """Assert FIFO ordering and index consistency (property tests).

        ``allow_promoted_head`` tolerates a *prefix* of promoted
        dedicated jobs: Algorithm 3 pushes each due dedicated job to
        the head, and since ordinary arrivals append at the tail, all
        still-waiting promoted jobs always occupy a contiguous prefix
        (in reverse promotion order).  The batch suffix behind them
        must be FIFO by *effective arrival* — requeued jobs (fault
        recovery) re-enter at the tail with their requeue instant as
        the ordering key, and an evicted dedicated job rejoins as an
        ordinary batch-tail citizen rather than a promoted head.
        """
        assert self._order == sorted(self._order), "token order drifted"
        assert len(self._order) == len(self._by_token) == len(self._index)
        sized_count = 0
        for size, (tokens, estimates) in self._by_size.items():
            assert tokens == sorted(tokens), f"size-{size} tokens out of order"
            assert tokens, f"empty token list retained for size {size}"
            assert len(estimates) == len(tokens), f"size-{size} estimate column drifted"
            sized_count += len(tokens)
            for token, estimate in zip(tokens, estimates):
                job = self._by_token[token]
                assert job.num == size, (
                    f"job {job.job_id} indexed at size {size} but num={job.num} "
                    "(missed reindex?)"
                )
                assert job.estimate == estimate, (
                    f"job {job.job_id} cached estimate {estimate} but "
                    f"estimate={job.estimate} (missed reindex?)"
                )
        assert sized_count == len(self._order), "size index lost a job"
        for job_id, (token, indexed_num) in self._index.items():
            assert self._by_token[token].job_id == job_id, "token map drifted"
            assert self._by_token[token].num == indexed_num
        jobs = self.jobs()
        start = 0
        if allow_promoted_head:
            while start < len(jobs) and jobs[start].is_dedicated:
                start += 1
        for earlier, later in zip(jobs[start:], jobs[start + 1 :]):
            assert (
                not later.is_dedicated
                or later.requeued_at is not None
                or not allow_promoted_head
            ), f"promoted dedicated job {later.job_id} outside the queue prefix"
            assert earlier.effective_arrival() <= later.effective_arrival(), (
                f"FIFO violation: {earlier.job_id} (arr={earlier.effective_arrival()}) "
                f"before {later.job_id} (arr={later.effective_arrival()})"
            )


__all__ = ["BatchQueue"]
