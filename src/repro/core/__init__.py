"""Scheduling algorithms — the paper's contribution and its baselines.

Implemented policies (Table III of the paper):

========================  =============================================
Registry name             Class / construction
========================  =============================================
``FCFS``                  :class:`~repro.core.fcfs.FCFS` (extra baseline)
``CONSERVATIVE``          :class:`~repro.core.conservative.ConservativeBackfill`
``EASY``                  :class:`~repro.core.easy.EasyBackfill`
``LOS``                   :class:`~repro.core.delayed_los.DelayedLOS`, ``C_s = 0``
``Delayed-LOS``           :class:`~repro.core.delayed_los.DelayedLOS`
``EASY-D``                :class:`~repro.core.easy.EasyBackfill`, ``dedicated=True``
``LOS-D``                 :class:`~repro.core.hybrid_los.HybridLOS`, ``C_s = 0``
``Hybrid-LOS``            :class:`~repro.core.hybrid_los.HybridLOS`
``*-E`` / ``*-DE``        same classes with ``elastic=True``
========================  =============================================

The dynamic programs at the heart of the LOS family (``Basic_DP`` and
``Reservation_DP``) live in :mod:`repro.core.dp` and are shared by
LOS, Delayed-LOS, Hybrid-LOS and the -D variants.
"""

from repro.core.audit import AuditViolation, AuditingScheduler
from repro.core.base import CycleDecision, Scheduler, SchedulerContext
from repro.core.conservative import ConservativeBackfill
from repro.core.delayed_los import DelayedLOS
from repro.core.dp import (
    DPSelection,
    basic_dp,
    basic_dp_select,
    reservation_dp,
    reservation_dp_select,
)
from repro.core.easy import EasyBackfill
from repro.core.elastic import ECCProcessor, ECCResult
from repro.core.fcfs import FCFS
from repro.core.hybrid_los import HybridLOS
from repro.core.registry import ALGORITHMS, make_scheduler
from repro.core.selector import AdaptiveSelector

__all__ = [
    "ALGORITHMS",
    "AdaptiveSelector",
    "AuditViolation",
    "AuditingScheduler",
    "ConservativeBackfill",
    "CycleDecision",
    "DPSelection",
    "DelayedLOS",
    "ECCProcessor",
    "ECCResult",
    "EasyBackfill",
    "FCFS",
    "HybridLOS",
    "Scheduler",
    "SchedulerContext",
    "basic_dp",
    "basic_dp_select",
    "make_scheduler",
    "reservation_dp",
    "reservation_dp_select",
]
