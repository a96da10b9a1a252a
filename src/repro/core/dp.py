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

Exactness is affordable because capacities shrink by the allocation
granularity (10 units on the 320-processor BlueGene/P with 32-processor
psets) and the lookahead is bounded (50 jobs in [7]).  The 2-D table is
vectorized with NumPy — the per-job update touches only the reachable
sub-rectangle ``dp[size:, fsize:]`` (the shifted cells a candidate can
improve), never the full table — and the selected set is reconstructed
by an *incremental backtrack*: each candidate records only the cells it
improved (and their previous values), and the backtrack undoes those
deltas one candidate at a time to recover the before-table it needs.
This is exactly equivalent to the snapshot-per-candidate formulation
but stores sparse deltas instead of full table copies, which matters
because the DP runs once per scheduling cycle on the hot path.

Each call canonicalizes its instance — ``(capacity, ((size, value),
...))`` for ``basic_dp``, ``(cap_now, cap_freeze, ((size, fsize,
value), ...))`` for ``reservation_dp`` — and solves it afresh: the
instances are small enough (see above) that a bitset solve costs about
as much as hashing the instance would.  The solver returns
selected candidate *indices*, mapped back onto the live :class:`Job`
candidates of the calling cycle.  ``dp_invocations``/``dp_cells``
count every non-trivial solve.

Tie-breaking: when several sets achieve maximal utilization, the
reconstruction prefers jobs *closer to the head of the queue* (a later
job is skipped whenever the same value is achievable without it),
which keeps the policies as FCFS-faithful as packing allows.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

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


def _eligible(jobs: Iterable[Job], free: int, lookahead: Optional[int]) -> List[Job]:
    """Candidate set: the first ``lookahead`` queued jobs that fit ``m``.

    Single pass over the (bounded) window — no intermediate copies of
    the full queue; this runs every scheduling cycle.
    """
    window = jobs if lookahead is None else islice(jobs, lookahead)
    return [job for job in window if job.num <= free]


# ----------------------------------------------------------------------
# Solvers (pure functions of the canonical instance)
# ----------------------------------------------------------------------
def _proportional_ratio(sizes: List[int], values: List[int]) -> Optional[int]:
    """The common ``value / size`` ratio, or ``None`` when there is none.

    Machine-validated workloads always have one (``num`` is a positive
    multiple of the granularity, so ``value == size * granularity``),
    which turns the value-maximizing knapsack into a subset-sum over
    sizes — solvable on integer bitsets instead of a value table.
    """
    if not sizes or sizes[0] <= 0 or values[0] % sizes[0]:
        return None
    ratio = values[0] // sizes[0]
    for size, value in zip(sizes, values):
        if size <= 0 or value != size * ratio:
            return None
    return ratio


def _solve_basic(capacity: int, entries: Tuple[Tuple[int, int], ...]) -> Tuple[int, ...]:
    """Solve one ``basic_dp`` instance; returns selected indices.

    ``entries`` is the canonical ``((size, value), ...)`` tuple (sizes
    and ``capacity`` in granularity units).
    Dispatches to the bitset subset-sum solver when values are
    proportional to sizes (always true under the machine's granularity
    invariant); the value-table solver is the general fallback and the
    reference the property tests compare against.
    """
    token = _span_begin("dp_solve")
    try:
        if _proportional_ratio([s for s, _ in entries], [v for _, v in entries]) is not None:
            return _solve_basic_bitset(capacity, entries)
        return _solve_basic_table(capacity, entries)
    finally:
        _span_end(token)


def _solve_basic_bitset(
    capacity: int, entries: Tuple[Tuple[int, int], ...]
) -> Tuple[int, ...]:
    """Subset-sum formulation on one Python integer per prefix.

    Bit ``s`` of the running integer means "some subset of the
    candidates seen so far occupies exactly ``s`` units".  With values
    proportional to sizes, the utilization-maximal set is the highest
    reachable bit, and the FCFS tie-break of the table solver ("skip a
    later job whenever the same value is achievable without it") maps
    to a prefix-reachability test per candidate.  ``dp_cells`` counts
    newly-reachable sums here (the bitset analogue of improved cells).
    """
    full = (1 << (capacity + 1)) - 1
    bits = 1
    prefixes: List[int] = []
    cells_touched = 0
    for size, _ in entries:
        prefixes.append(bits)
        grown = (bits | (bits << size)) & full
        cells_touched += (grown ^ bits).bit_count()
        bits = grown
    bump("dp_cells", cells_touched)
    bump("dp_invocations")

    selected: List[int] = []
    remaining = bits.bit_length() - 1  # the best achievable total size
    for index in range(len(entries) - 1, -1, -1):
        if (prefixes[index] >> remaining) & 1:
            continue  # same total achievable without this (later) job
        selected.append(index)
        remaining -= entries[index][0]
    assert remaining == 0, "bitset backtrack corrupted"
    selected.reverse()
    return tuple(selected)


def _solve_basic_table(capacity: int, entries: Tuple[Tuple[int, int], ...]) -> Tuple[int, ...]:
    """General value-table solver (arbitrary size/value combinations)."""
    dp = np.zeros(capacity + 1, dtype=np.int64)
    # Per candidate: the cells it improved and their previous values,
    # so the backtrack can undo updates instead of copying the table.
    undo: List[Tuple[np.ndarray, np.ndarray]] = []
    cells_touched = 0
    _no_cells = np.empty(0, dtype=np.intp)
    for size, value in entries:
        if size > capacity:
            # Unselectable candidate (callers filter these; kept for
            # robustness on raw solver input).
            undo.append((_no_cells, _no_cells))
            continue
        # Only cells >= size are reachable; comparing the shifted
        # prefix against the tail touches exactly those, instead of
        # sentinel-filling the whole table per candidate.
        shifted = dp[: capacity + 1 - size] + value
        better = np.nonzero(shifted > dp[size:])[0]
        cells_touched += better.size
        new_values = shifted[better]
        improved = better + size
        undo.append((improved, dp[improved]))
        dp[improved] = new_values
    bump("dp_cells", int(cells_touched))
    bump("dp_invocations")

    selected: List[int] = []
    c = capacity
    v = int(dp[c])
    for index in range(len(entries) - 1, -1, -1):
        cells, previous = undo[index]
        dp[cells] = previous  # dp is now the table *before* this candidate
        if int(dp[c]) == v:
            continue  # same value achievable without this (later) job
        selected.append(index)
        c -= entries[index][0]
        v -= entries[index][1]
        assert c >= 0 and int(dp[c]) == v, "DP backtrack corrupted"
    selected.reverse()
    return tuple(selected)


def _solve_reservation(
    cap_now: int, cap_freeze: int, entries: Tuple[Tuple[int, int, int], ...]
) -> Tuple[int, ...]:
    """Solve one ``reservation_dp`` instance; returns selected indices.

    Same dispatch as :func:`_solve_basic`: bitset subset-sum over the
    two capacity dimensions when values are proportional to sizes,
    value-table fallback otherwise.
    """
    token = _span_begin("dp_solve")
    try:
        if (
            _proportional_ratio([s for s, _, _ in entries], [v for _, _, v in entries])
            is not None
        ):
            return _solve_reservation_bitset(cap_now, cap_freeze, entries)
        return _solve_reservation_table(cap_now, cap_freeze, entries)
    finally:
        _span_end(token)


def _solve_reservation_bitset(
    cap_now: int, cap_freeze: int, entries: Tuple[Tuple[int, int, int], ...]
) -> Tuple[int, ...]:
    """2-D subset-sum on one wide integer per prefix.

    State ``(now-units r, freeze-units c)`` lives at bit ``r*W + c``;
    the row width ``W`` is padded past ``cap_freeze`` by the largest
    freeze size so a candidate's shift ``size*W + fsize`` can never
    carry a column into the next row before the validity mask prunes
    it.  The best set maximizes the row index; the backtrack skips a
    later candidate whenever its row total is prefix-reachable within
    the remaining freeze budget (the exact tie-break of the table
    solver, restated on reachability).
    """
    width = cap_freeze + 1 + max((fsize for _, fsize, _ in entries), default=0)
    column_mask = (1 << (cap_freeze + 1)) - 1
    valid = 0
    for row in range(cap_now + 1):
        valid |= column_mask << (row * width)
    bits = 1
    prefixes: List[int] = []
    cells_touched = 0
    for size, fsize, _ in entries:
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
        size, fsize, _ = entries[index]
        selected.append(index)
        remaining -= size
        freeze_budget -= fsize
    assert remaining == 0 and freeze_budget >= 0, "bitset backtrack corrupted"
    selected.reverse()
    return tuple(selected)


def _solve_reservation_table(
    cap_now: int, cap_freeze: int, entries: Tuple[Tuple[int, int, int], ...]
) -> Tuple[int, ...]:
    """General value-table solver (arbitrary size/value combinations)."""
    dp = np.zeros((cap_now + 1, cap_freeze + 1), dtype=np.int64)
    # Sparse per-candidate deltas for the incremental backtrack (see
    # module docstring) — no full 2-D table copies on the hot path.
    undo: List[Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray]] = []
    cells_touched = 0
    _no_cells = np.empty(0, dtype=np.intp)
    for size, fsize, value in entries:
        if size > cap_now or fsize > cap_freeze:
            # Unselectable candidate (callers filter these; kept for
            # robustness on raw solver input).
            undo.append(((_no_cells, _no_cells), _no_cells))
            continue
        # The reachable region is the sub-rectangle dp[size:, fsize:];
        # everything outside it kept the old value by definition, so
        # the L-shaped remainder never needs a sentinel.
        shifted = dp[: cap_now + 1 - size, : cap_freeze + 1 - fsize] + value
        rows, cols = np.nonzero(shifted > dp[size:, fsize:])
        cells_touched += rows.size
        new_values = shifted[rows, cols]
        improved = (rows + size, cols + fsize)
        undo.append((improved, dp[improved]))
        dp[improved] = new_values
    bump("dp_cells", int(cells_touched))
    bump("dp_invocations")

    selected: List[int] = []
    c1, c2 = cap_now, cap_freeze
    v = int(dp[c1, c2])
    for index in range(len(entries) - 1, -1, -1):
        cells, previous = undo[index]
        dp[cells] = previous  # dp is now the table *before* this candidate
        if int(dp[c1, c2]) == v:
            continue
        size, fsize, value = entries[index]
        selected.append(index)
        c1 -= size
        c2 -= fsize
        v -= value
        assert c1 >= 0 and c2 >= 0 and int(dp[c1, c2]) == v, (
            "DP backtrack corrupted"
        )
    selected.reverse()
    return tuple(selected)


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
    # list, the canonical solver entries, and notes the queue head —
    # this runs every scheduling cycle, so the separate _eligible /
    # entry-comprehension / next(iter(...)) passes it replaces were
    # measurable overhead.
    head_id: Optional[int] = None
    candidates: List[Job] = []
    append_candidate = candidates.append
    entry_list: List[Tuple[int, int]] = []
    append_entry = entry_list.append
    total = 0
    window = jobs if lookahead is None else islice(jobs, lookahead)
    for job in window:
        if head_id is None:
            head_id = job.job_id
        num = job.num
        if num <= free:
            append_candidate(job)
            append_entry((num // granularity, num))
            total += num
    if not candidates:
        return _EMPTY
    if total <= free:
        # Every candidate fits at once: taking all of them is the
        # unique DP optimum (values are positive), so the solve is
        # skipped entirely.
        return DPSelection(candidates, candidates[0].job_id == head_id)
    indices = _solve_basic(free // granularity, tuple(entry_list))
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
        granularity: Allocation unit; all sizes and ``free`` are
            multiples of it by machine invariant.
        lookahead: Max queue prefix examined (None = unbounded).

    Returns:
        The selected set ``S`` in queue order.  Empty when nothing fits.

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

    # Fused eligibility + canonicalization pass (see basic_dp_select):
    # one walk over the lookahead window computes fit, frenum folding
    # and the solver entries together.
    head_id: Optional[int] = None
    entry_jobs: List[Job] = []
    append_job = entry_jobs.append
    entry_list: List[Tuple[int, int, int]] = []
    append_entry = entry_list.append
    tot_size = 0
    tot_fsize = 0
    window = jobs if lookahead is None else islice(jobs, lookahead)
    for job in window:
        if head_id is None:
            head_id = job.job_id
        num = job.num
        if num > free:
            continue
        # Algorithm 1 line 16 (strict <): jobs ending before the freeze
        # end time do not occupy freeze capacity.
        fsize = 0 if now + job.estimate < freeze_time else num // granularity
        if fsize > cap_freeze:
            continue  # can never be selected: would overrun the reservation
        size = num // granularity
        append_job(job)
        append_entry((size, fsize, num))
        tot_size += size
        tot_fsize += fsize
    if not entry_list:
        return _EMPTY
    if tot_size <= cap_now and tot_fsize <= cap_freeze:
        # Every candidate fits inside both budgets at once: taking all
        # of them is the unique DP optimum (values are positive), so
        # the solve is skipped entirely.
        return DPSelection(entry_jobs, entry_jobs[0].job_id == head_id)
    indices = _solve_reservation(cap_now, cap_freeze, tuple(entry_list))
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
        granularity: Allocation unit.
        lookahead: Max queue prefix examined.

    Returns:
        The selected set ``S_f`` in queue order.
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
