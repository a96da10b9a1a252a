"""Value-table knapsack solvers: the reference for the bitset DP solvers.

These are the general 0/1 knapsack solvers (arbitrary size/value
combinations) that :mod:`repro.core.dp` once shipped as a fallback.
Every simulated instance has values proportional to sizes, so the
library solves on bitsets only; the tables stay here as the oracle that
``TestBitsetMatchesTable`` holds the bitset solvers to, selected
indices included.

Each solver updates a NumPy table one candidate at a time, recording
the cells it improved and their previous values, so the backtrack can
undo those deltas to recover the before-table of each candidate.  The
backtrack skips a later candidate whenever the same value is
achievable without it (the FCFS tie-break).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def solve_basic_table(
    capacity: int, entries: Tuple[Tuple[int, int], ...]
) -> Tuple[int, ...]:
    """``((size, value), ...)`` within ``capacity``; selected indices."""
    dp = np.zeros(capacity + 1, dtype=np.int64)
    undo: List[Tuple[np.ndarray, np.ndarray]] = []
    no_cells = np.empty(0, dtype=np.intp)
    for size, value in entries:
        if size > capacity:
            undo.append((no_cells, no_cells))
            continue
        shifted = dp[: capacity + 1 - size] + value
        better = np.nonzero(shifted > dp[size:])[0]
        improved = better + size
        undo.append((improved, dp[improved]))
        dp[improved] = shifted[better]

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


def solve_reservation_table(
    cap_now: int, cap_freeze: int, entries: Tuple[Tuple[int, int, int], ...]
) -> Tuple[int, ...]:
    """``((size, fsize, value), ...)`` within both capacities; indices."""
    dp = np.zeros((cap_now + 1, cap_freeze + 1), dtype=np.int64)
    undo: List[Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray]] = []
    no_cells = np.empty(0, dtype=np.intp)
    for size, fsize, value in entries:
        if size > cap_now or fsize > cap_freeze:
            undo.append(((no_cells, no_cells), no_cells))
            continue
        # Only the sub-rectangle dp[size:, fsize:] is reachable.
        shifted = dp[: cap_now + 1 - size, : cap_freeze + 1 - fsize] + value
        rows, cols = np.nonzero(shifted > dp[size:, fsize:])
        improved = (rows + size, cols + fsize)
        undo.append((improved, dp[improved]))
        dp[improved] = shifted[rows, cols]

    selected: List[int] = []
    c1, c2 = cap_now, cap_freeze
    v = int(dp[c1, c2])
    for index in range(len(entries) - 1, -1, -1):
        cells, previous = undo[index]
        dp[cells] = previous
        if int(dp[c1, c2]) == v:
            continue
        size, fsize, value = entries[index]
        selected.append(index)
        c1 -= size
        c2 -= fsize
        v -= value
        assert c1 >= 0 and c2 >= 0 and int(dp[c1, c2]) == v, "DP backtrack corrupted"
    selected.reverse()
    return tuple(selected)
