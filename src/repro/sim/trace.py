"""Structured trace records for simulations.

Every state transition the runner performs (arrival, start, finish,
ECC application, dedicated promotion, ...) is one trace record.  A
traced run writes them as ``(time, kind, data)`` fields straight to its
:class:`~repro.obs.trace_io.TraceWriter` — the one copy of the trace —
and readers get them back as :class:`TraceRecord` objects
(:func:`repro.obs.trace_io.read_trace`).  Tests use traces to assert
*event-level* invariants — e.g. "no job ever started before it
arrived", "capacity was never exceeded between any two consecutive
records" — rather than only end-of-run aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One audited simulation transition.

    Attributes:
        time: Simulation instant of the transition.
        kind: Short machine-readable tag (``"arrive"``, ``"start"``,
            ``"finish"``, ``"ecc"``, ``"promote"``, ...).
        data: Free-form payload (job ids, sizes, deltas).
    """

    time: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        payload = ", ".join(f"{k}={v!r}" for k, v in sorted(self.data.items()))
        return f"[{self.time:>10.1f}] {self.kind}({payload})"


#: A record's ``(time, kind, data)`` fields, as the runner hands them
#: to :meth:`repro.obs.trace_io.TraceWriter.write`.
TraceFields = Tuple[float, str, Dict[str, Any]]


__all__ = ["TraceFields", "TraceRecord"]
