"""Structured trace records for simulations.

Every state transition the runner performs (arrival, start, finish,
ECC application, dedicated promotion, ...) is one trace record.  A
traced run writes them as ``(time, kind, data)`` fields straight to its
:class:`~repro.obs.trace_io.TraceWriter` — the one copy of the trace —
and readers get them back as :class:`TraceRecord` tuples
(:func:`repro.obs.trace_io.read_trace`).  Tests use traces to assert
*event-level* invariants — e.g. "no job ever started before it
arrived", "capacity was never exceeded between any two consecutive
records" — rather than only end-of-run aggregates.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Tuple


class TraceRecord(NamedTuple):
    """One audited simulation transition.

    A named ``(time, kind, data)`` tuple: readers build one tuple per
    record, and consumers such as :func:`repro.obs.analytics.replay`
    unpack it like the writer's :data:`TraceFields`.

    Attributes:
        time: Simulation instant of the transition.
        kind: Short machine-readable tag (``"arrive"``, ``"start"``,
            ``"finish"``, ``"ecc"``, ``"promote"``, ...).
        data: Free-form payload (job ids, sizes, deltas).
    """

    time: float
    kind: str
    data: Dict[str, Any]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        payload = ", ".join(f"{k}={v!r}" for k, v in sorted(self.data.items()))
        return f"[{self.time:>10.1f}] {self.kind}({payload})"


#: A record's ``(time, kind, data)`` fields, as the runner hands them
#: to :meth:`repro.obs.trace_io.TraceWriter.write`.
TraceFields = Tuple[float, str, Dict[str, Any]]


__all__ = ["TraceFields", "TraceRecord"]
