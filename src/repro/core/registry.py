"""Algorithm registry — Table III of the paper.

Maps the twelve evaluated algorithm names (plus extra baselines) to
constructors, so experiments and benchmarks can be specified by name::

    make_scheduler("Delayed-LOS", max_skip_count=7)
    make_scheduler("EASY-DE")

Naming convention, as in the paper: ``-D`` handles the heterogeneous
(dedicated + batch) workload, ``-E`` appends the ECC processor, and
``-DE`` does both.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.base import Scheduler
from repro.core.conservative import ConservativeBackfill
from repro.core.delayed_los import DelayedLOS
from repro.core.dp import DEFAULT_LOOKAHEAD
from repro.core.easy import EasyBackfill
from repro.core.fcfs import FCFS
from repro.core.hybrid_los import HybridLOS
from repro.core.malleable import (
    MalleableAgreement,
    MalleableBackfill,
    MalleableFCFS,
)
from repro.core.selector import AdaptiveSelector
from repro.core.sizeorder import LargestJobFirst, ShortestJobFirst, SmallestJobFirst

_Factory = Callable[[int, Optional[int], bool], Scheduler]


def _easy(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return EasyBackfill(elastic=elastic)


def _easy_d(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return EasyBackfill(elastic=elastic, dedicated=True)


# LOS [7] starts a fitting head right away and packs around a blocked
# head's reservation: Algorithm 1 with C_s = 0, whatever C_s the caller
# asked for.  LOS-D, "LOS appended with the dedicated job queue", is
# Algorithm 2 with C_s = 0 in the same way.
def _los(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return DelayedLOS(max_skip_count=0, lookahead=lookahead, elastic=elastic)


def _los_d(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return HybridLOS(max_skip_count=0, lookahead=lookahead, elastic=elastic)


def _delayed(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return DelayedLOS(max_skip_count=cs, lookahead=lookahead, elastic=elastic)


def _hybrid(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return HybridLOS(max_skip_count=cs, lookahead=lookahead, elastic=elastic)


def _fcfs(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return FCFS(elastic=elastic)


def _conservative(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return ConservativeBackfill(elastic=elastic)


def _adaptive(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return AdaptiveSelector(max_skip_count=cs, lookahead=lookahead, elastic=elastic)


def _malleable_fcfs(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return MalleableFCFS(elastic=elastic)


def _malleable_backfill(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return MalleableBackfill(elastic=elastic)


def _malleable_agreement(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return MalleableAgreement(elastic=elastic)


def _sjf(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return ShortestJobFirst(elastic=elastic)


def _smallest(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return SmallestJobFirst(elastic=elastic)


def _ljf(cs: int, lookahead: Optional[int], elastic: bool) -> Scheduler:
    return LargestJobFirst(elastic=elastic)


#: name -> (factory, elastic flag).  Table III rows plus two related-
#: work baselines used by ablations.
ALGORITHMS: Dict[str, tuple[_Factory, bool]] = {
    "EASY": (_easy, False),
    "EASY-D": (_easy_d, False),
    "EASY-E": (_easy, True),
    "EASY-DE": (_easy_d, True),
    "LOS": (_los, False),
    "LOS-D": (_los_d, False),
    "LOS-E": (_los, True),
    "LOS-DE": (_los_d, True),
    "Delayed-LOS": (_delayed, False),
    "Hybrid-LOS": (_hybrid, False),
    "Delayed-LOS-E": (_delayed, True),
    "Hybrid-LOS-E": (_hybrid, True),
    "FCFS": (_fcfs, False),
    "CONSERVATIVE": (_conservative, False),
    # The paper's §V-A "dynamic, algorithm selection policy" suggestion.
    "ADAPTIVE": (_adaptive, False),
    "ADAPTIVE-E": (_adaptive, True),
    # §II-B related-work baselines (queue-reordering, pre-backfilling).
    "SJF": (_sjf, False),
    "SMALLEST": (_smallest, False),
    "LJF": (_ljf, False),
    # Scheduler-initiated malleability extensions (docs/malleability.md).
    # Elastic by construction: their resize commands ride the ECC path.
    "Malleable-FCFS": (_malleable_fcfs, True),
    "Malleable-Backfill": (_malleable_backfill, True),
    "Malleable-Agreement": (_malleable_agreement, True),
}


def make_scheduler(
    name: str,
    max_skip_count: int = 7,
    lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
) -> Scheduler:
    """Instantiate an algorithm by its Table III name.

    Args:
        name: Registry key (case-sensitive, paper spelling).
        max_skip_count: ``C_s`` for Delayed-LOS / Hybrid-LOS (ignored
            by the baselines, whose behaviour pins it).
        lookahead: DP window for the LOS family.

    Raises:
        KeyError: with the known names listed, on a bad name.
    """
    try:
        factory, elastic = ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None
    scheduler = factory(max_skip_count, lookahead, elastic)
    scheduler.name = name  # canonical registry spelling
    return scheduler


__all__ = ["ALGORITHMS", "make_scheduler"]
