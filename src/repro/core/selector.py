"""Adaptive algorithm selection — the paper's §V-A suggestion.

Figure 8's observation: with many small jobs (high ``P_S``) EASY and
Delayed-LOS perform alike, while with many large jobs Delayed-LOS's DP
packing wins clearly.  The paper concludes:

    "This observation can lead to design of a dynamic, algorithm
    selection policy that selects the best performing algorithm among
    Delayed-LOS and EASY, for different proportions of small and large
    sized jobs in a parallel processing system."

:class:`AdaptiveSelector` implements exactly that policy: it observes
the small-job share among the jobs currently visible to the scheduler
(waiting + running), and delegates each cycle to EASY when small jobs
dominate (cheap, plenty of backfill opportunities) or to Delayed-LOS
when large jobs make packing quality decisive.  Hysteresis prevents
thrashing at the boundary.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import CycleDecision, Scheduler, SchedulerContext
from repro.core.delayed_los import DelayedLOS
from repro.core.dp import DEFAULT_LOOKAHEAD
from repro.core.easy import EasyBackfill


class AdaptiveSelector(Scheduler):
    """Delegates to EASY or Delayed-LOS based on the observed job mix.

    Args:
        small_threshold: Jobs of at most this many processors count as
            small (96 = the paper's boundary on BlueGene/P).
        switch_share: Small-job share above which EASY is selected.
        hysteresis: Dead band around ``switch_share`` — the selector
            keeps its current delegate while the share stays within
            ``switch_share ± hysteresis``.
        max_skip_count: ``C_s`` for the Delayed-LOS delegate.
        lookahead: DP window for the Delayed-LOS delegate.
    """

    name = "ADAPTIVE"

    def __init__(
        self,
        small_threshold: int = 96,
        switch_share: float = 0.7,
        hysteresis: float = 0.05,
        max_skip_count: int = 7,
        lookahead: Optional[int] = DEFAULT_LOOKAHEAD,
        elastic: bool = False,
    ) -> None:
        if not 0.0 <= switch_share <= 1.0:
            raise ValueError(f"switch_share must be a probability, got {switch_share}")
        if hysteresis < 0.0:
            raise ValueError(f"hysteresis must be non-negative, got {hysteresis}")
        super().__init__(elastic=elastic)
        self.small_threshold = int(small_threshold)
        self.switch_share = float(switch_share)
        self.hysteresis = float(hysteresis)
        self._easy = EasyBackfill()
        self._delayed = DelayedLOS(max_skip_count=max_skip_count, lookahead=lookahead)
        self._current: Scheduler = self._delayed
        self.switches = 0  # diagnostic: delegate changes over the run

    # ------------------------------------------------------------------
    def small_job_share(self, ctx: SchedulerContext) -> float:
        """Share of small jobs among waiting + running jobs."""
        sizes = [job.num for job in ctx.batch_queue] + [job.num for job in ctx.active]
        if not sizes:
            return 1.0
        return sum(1 for num in sizes if num <= self.small_threshold) / len(sizes)

    def _select(self, ctx: SchedulerContext) -> Scheduler:
        share = self.small_job_share(ctx)
        if self._current is self._easy:
            wanted = self._easy if share >= self.switch_share - self.hysteresis else self._delayed
        else:
            wanted = self._easy if share >= self.switch_share + self.hysteresis else self._delayed
        if wanted is not self._current:
            self.switches += 1
            self._current = wanted
        return wanted

    @property
    def current_delegate(self) -> str:
        """Name of the currently selected delegate (diagnostics)."""
        return self._current.name

    def cycle(self, ctx: SchedulerContext) -> CycleDecision:
        return self._select(ctx).cycle(ctx)


__all__ = ["AdaptiveSelector"]
