"""``Basic_DP`` and ``Reservation_DP`` — the LOS dynamic programs [7].

Both solve exact 0/1 knapsacks that pick a set of waiting jobs
maximizing *instantaneous utilization* (the sum of selected job sizes):

``basic_dp``
    one capacity dimension — the free processors ``m`` right now.

``reservation_dp``
    two capacity dimensions — free processors now, and the "freeze end
    capacity" ``frec`` available at the freeze end time ``fret``
    (the *shadow time/capacity* of [7]).  A selected job consumes
    freeze capacity only if it would still be running at ``fret``:
    ``frenum = 0 if t + dur < fret else num`` (Algorithm 1 line 16).

The value of a job is its size ``num``, and every size is a multiple of
the allocation granularity (10 units on the 320-processor BlueGene/P
with 32-processor psets), so each knapsack is a subset-sum over sizes
in granularity units.  It is solved exactly on Python integers used as
bitsets: bit ``s`` of the running integer means "some subset of the
candidates seen so far occupies exactly ``s`` units" (a 2-D row/column
layout for ``reservation_dp``).  One shift-or per candidate grows the
reachable set, the best total is the highest reachable bit, and the
per-candidate prefix integers drive the backtrack.  The lookahead
bound (50 jobs in [7]) keeps every instance small, so each call solves
afresh; ``dp_invocations``/``dp_cells`` count every non-trivial solve,
and the public functions raise :class:`ValueError` on sizes that are
not multiples of ``granularity``.

Tie-breaking: when several sets achieve maximal utilization, the
reconstruction prefers jobs *closer to the head of the queue* (a later
job is skipped whenever the same total is reachable without it),
which keeps the policies as FCFS-faithful as packing allows.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.obs.spans import begin as _span_begin, end as _span_end
from repro.obs.telemetry import bump
from repro.workload.job import Job

#: Lookahead bound of [7]: the DP examines at most this many waiting
#: jobs per cycle, which the authors showed loses almost no packing
#: efficiency while bounding runtime.
DEFAULT_LOOKAHEAD = 50


class DPSelection(NamedTuple):
    """A DP decision plus head metadata the policies need.

    Attributes:
        jobs: The selected set in queue order (empty when nothing fits).
        head_selected: Whether the queue's head job is in the set.
            Computed here (the head, when eligible, is candidate 0) so
            policies don't re-scan the set for head membership on every
            pass.
    """

    jobs: List[Job]
    head_selected: bool


_EMPTY = DPSelection([], False)


# ----------------------------------------------------------------------
# Solvers (pure functions of the instance, sizes in granularity units)
# ----------------------------------------------------------------------
def _solve_basic_bitset(capacity: int, sizes: List[int]) -> Tuple[int, ...]:
    """Solve one ``basic_dp`` instance; returns the selected indices.

    Bit ``s`` of the running integer means "some subset of the
    candidates seen so far occupies exactly ``s`` units"; the
    utilization-maximal set is the highest reachable bit.  The FCFS
    tie-break is a prefix-reachability test per candidate: a later job
    is skipped whenever its remaining total is reachable without it.
    ``dp_cells`` counts newly-reachable sums.
    """
    full = (1 << (capacity + 1)) - 1
    bits = 1
    prefixes: List[int] = []
    cells_touched = 0
    for size in sizes:
        prefixes.append(bits)
        grown = (bits | (bits << size)) & full
        cells_touched += (grown ^ bits).bit_count()
        bits = grown
    bump("dp_cells", cells_touched)
    bump("dp_invocations")

    selected: List[int] = []
    remaining = bits.bit_length() - 1  # the best achievable total size
    for index in range(len(sizes) - 1, -1, -1):
        if (prefixes[index] >> remaining) & 1:
            continue  # same total achievable without this (later) job
        selected.append(index)
        remaining -= sizes[index]
    assert remaining == 0, "bitset backtrack corrupted"
    selected.reverse()
    return tuple(selected)


def _solve_reservation_bitset(
    cap_now: int, cap_freeze: int, entries: List[Tuple[int, int]]
) -> Tuple[int, ...]:
    """Solve one ``reservation_dp`` instance; returns the selected indices.

    ``entries`` holds ``(size, fsize)`` per candidate.  State
    ``(now-units r, freeze-units c)`` lives at bit ``r*W + c``; the row
    width ``W`` is padded past ``cap_freeze`` by the largest freeze size
    so a candidate's shift ``size*W + fsize`` can never carry a column
    into the next row before the validity mask prunes it.  The best set
    maximizes the row index; the backtrack skips a later candidate
    whenever its row total is prefix-reachable within the remaining
    freeze budget (the same FCFS tie-break as the 1-D solver).
    """
    width = cap_freeze + 1 + max((fsize for _, fsize in entries), default=0)
    column_mask = (1 << (cap_freeze + 1)) - 1
    valid = 0
    for row in range(cap_now + 1):
        valid |= column_mask << (row * width)
    bits = 1
    prefixes: List[int] = []
    cells_touched = 0
    for size, fsize in entries:
        prefixes.append(bits)
        grown = (bits | (bits << (size * width + fsize))) & valid
        cells_touched += (grown ^ bits).bit_count()
        bits = grown
    bump("dp_cells", cells_touched)
    bump("dp_invocations")

    selected: List[int] = []
    remaining = (bits.bit_length() - 1) // width  # best total now-units
    freeze_budget = cap_freeze
    for index in range(len(entries) - 1, -1, -1):
        row = (prefixes[index] >> (remaining * width)) & (
            (1 << (freeze_budget + 1)) - 1
        )
        if row:
            continue  # same total achievable without this (later) job
        size, fsize = entries[index]
        selected.append(index)
        remaining -= size
        freeze_budget -= fsize
    assert remaining == 0 and freeze_budget >= 0, "bitset backtrack corrupted"
    selected.reverse()
    return tuple(selected)


def _check_granularity(units: int, total: int, granularity: int) -> None:
    """Raise unless every candidate size was a multiple of ``granularity``.

    ``units`` is ``Σ num // granularity`` and ``total`` is ``Σ num``
    over the candidates; flooring loses nothing exactly when they agree.
    """
    if units * granularity != total:
        raise ValueError(
            f"job sizes must be multiples of the granularity {granularity}"
        )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def basic_dp_select(
    jobs: Iterable[Job],
    free: int,
    granularity: int = 1,
    lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
) -> DPSelection:
    """``Basic_DP`` with head metadata (see :func:`basic_dp`)."""
    if free <= 0:
        return _EMPTY
    # One fused pass over the lookahead window builds the candidate
    # list and their sizes in granularity units, and notes the queue
    # head — this runs every scheduling cycle.
    head_id: Optional[int] = None
    candidates: List[Job] = []
    append_candidate = candidates.append
    sizes: List[int] = []
    append_size = sizes.append
    total = 0
    units = 0
    window = jobs if lookahead is None else islice(jobs, lookahead)
    for job in window:
        if head_id is None:
            head_id = job.job_id
        num = job.num
        if num <= free:
            size = num // granularity
            append_candidate(job)
            append_size(size)
            total += num
            units += size
    _check_granularity(units, total, granularity)
    if not candidates:
        return _EMPTY
    if total <= free:
        # Every candidate fits at once: taking all of them is the
        # unique DP optimum (values are positive), so the solve is
        # skipped entirely.
        return DPSelection(candidates, candidates[0].job_id == head_id)
    token = _span_begin("dp_solve")
    try:
        indices = _solve_basic_bitset(free // granularity, sizes)
    finally:
        _span_end(token)
    selected = [candidates[i] for i in indices]
    head_selected = bool(selected) and selected[0].job_id == head_id
    return DPSelection(selected, head_selected)


def basic_dp(
    jobs: Iterable[Job],
    free: int,
    granularity: int = 1,
    lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
) -> List[Job]:
    """Select waiting jobs maximizing utilization within ``free``.

    Args:
        jobs: Waiting queue in FIFO order (``W^b``).
        free: Free processors ``m``.
        granularity: Allocation unit; all sizes are multiples of it
            by machine invariant.
        lookahead: Max queue prefix examined (None = unbounded).

    Returns:
        The selected set ``S`` in queue order.  Empty when nothing fits.

    Raises:
        ValueError: if a candidate's size is not a multiple of
            ``granularity``.

    >>> from repro.workload.job import Job
    >>> queue = [Job(job_id=i, submit=0.0, num=n, estimate=60.0)
    ...          for i, n in [(1, 7), (2, 4), (3, 6)]]
    >>> [job.num for job in basic_dp(queue, free=10)]   # Figure 2: {4, 6}
    [4, 6]
    """
    return basic_dp_select(jobs, free, granularity, lookahead).jobs


def reservation_dp_select(
    jobs: Iterable[Job],
    free: int,
    freeze_capacity: int,
    freeze_time: float,
    now: float,
    granularity: int = 1,
    lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
) -> DPSelection:
    """``Reservation_DP`` with head metadata (see :func:`reservation_dp`)."""
    if free <= 0:
        return _EMPTY
    freeze_capacity = max(0, int(freeze_capacity))
    cap_now = free // granularity
    cap_freeze = freeze_capacity // granularity

    # Fused eligibility pass (see basic_dp_select): one walk over the
    # lookahead window computes fit, frenum folding and the solver
    # entries together.
    head_id: Optional[int] = None
    entry_jobs: List[Job] = []
    append_job = entry_jobs.append
    entry_list: List[Tuple[int, int]] = []
    append_entry = entry_list.append
    tot_size = 0
    tot_fsize = 0
    tot_num = 0
    window = jobs if lookahead is None else islice(jobs, lookahead)
    for job in window:
        if head_id is None:
            head_id = job.job_id
        num = job.num
        if num > free:
            continue
        size = num // granularity
        # Algorithm 1 line 16 (strict <): jobs ending before the freeze
        # end time do not occupy freeze capacity.
        fsize = 0 if now + job.estimate < freeze_time else size
        if fsize > cap_freeze:
            continue  # can never be selected: would overrun the reservation
        append_job(job)
        append_entry((size, fsize))
        tot_size += size
        tot_fsize += fsize
        tot_num += num
    _check_granularity(tot_size, tot_num, granularity)
    if not entry_list:
        return _EMPTY
    if tot_size <= cap_now and tot_fsize <= cap_freeze:
        # Every candidate fits inside both budgets at once: taking all
        # of them is the unique DP optimum (values are positive), so
        # the solve is skipped entirely.
        return DPSelection(entry_jobs, entry_jobs[0].job_id == head_id)
    token = _span_begin("dp_solve")
    try:
        indices = _solve_reservation_bitset(cap_now, cap_freeze, entry_list)
    finally:
        _span_end(token)
    selected = [entry_jobs[i] for i in indices]
    head_selected = bool(selected) and selected[0].job_id == head_id
    return DPSelection(selected, head_selected)


def reservation_dp(
    jobs: Iterable[Job],
    free: int,
    freeze_capacity: int,
    freeze_time: float,
    now: float,
    granularity: int = 1,
    lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
) -> List[Job]:
    """Select jobs maximizing utilization around a freeze reservation.

    Implements ``Reservation_DP(frec)``: maximize ``Σ num`` subject to

    - ``Σ num <= free`` (processors available now), and
    - ``Σ frenum <= freeze_capacity`` where ``frenum`` is ``num`` for
      jobs whose estimated end ``now + dur`` reaches the freeze end
      time ``freeze_time``, else 0.

    Args:
        jobs: Waiting queue in FIFO order.
        free: Free processors ``m`` now.
        freeze_capacity: ``frec`` — processors that will remain free at
            ``fret`` after honouring the reservation.
        freeze_time: ``fret`` — the reservation (shadow) instant.
        now: Current time ``t``.
        granularity: Allocation unit; all sizes are multiples of it.
        lookahead: Max queue prefix examined.

    Returns:
        The selected set ``S_f`` in queue order.

    Raises:
        ValueError: if a candidate's size is not a multiple of
            ``granularity``.
    """
    return reservation_dp_select(
        jobs, free, freeze_capacity, freeze_time, now, granularity, lookahead
    ).jobs


__all__ = [
    "DEFAULT_LOOKAHEAD",
    "DPSelection",
    "basic_dp",
    "basic_dp_select",
    "reservation_dp",
    "reservation_dp_select",
]
