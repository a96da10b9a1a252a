"""Graceful SIGINT/SIGTERM handling for long runs and sweeps.

Two cooperating pieces (docs/resilience.md):

- :func:`graceful_shutdown` — used *inside* a checkpointed run: the
  first signal only raises a flag, letting the event loop finish its
  current chunk and write a final checkpoint at a clean event boundary
  before exiting; a second signal escalates to an immediate
  ``KeyboardInterrupt`` (the escape hatch when the final checkpoint
  itself hangs).
- :func:`sigterm_as_interrupt` — used at the CLI layer: converts
  SIGTERM into ``KeyboardInterrupt`` so ``kill <pid>`` takes the same
  tidy path Ctrl-C does (flush the progress summary, report how many
  runs the cache kept, exit :data:`EXIT_INTERRUPTED`).

Handlers are only installed from the main thread of the main
interpreter (Python's rule for :func:`signal.signal`); elsewhere both
context managers are no-ops.  Previous handlers are restored on exit,
so nesting — the CLI wrapper around a checkpointed run's own handler —
composes.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

#: Exit code for "interrupted but resumable" (BSD ``EX_TEMPFAIL``):
#: distinct from success (0) and argument/runtime errors (1, 2) so
#: wrappers can distinguish "re-run me" from "fix me".
EXIT_INTERRUPTED = 75


class SignalFlag:
    """Latched record of the first shutdown signal received."""

    __slots__ = ("signum",)

    def __init__(self) -> None:
        self.signum: Optional[int] = None

    @property
    def set(self) -> bool:
        return self.signum is not None


def _in_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


@contextmanager
def graceful_shutdown(flag: SignalFlag) -> Iterator[SignalFlag]:
    """Latch SIGINT/SIGTERM into ``flag`` instead of interrupting.

    The body polls ``flag.set`` at safe points (event-chunk
    boundaries) and performs its own orderly exit.  A second signal
    while the flag is already set raises ``KeyboardInterrupt``
    immediately — repeated Ctrl-C always wins.
    """
    if not _in_main_thread():
        yield flag
        return

    def _handler(signum: int, frame: object) -> None:
        if flag.signum is None:
            flag.signum = signum
        else:
            raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (OSError, ValueError):  # pragma: no cover - exotic platforms
            pass
    try:
        yield flag
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


@contextmanager
def sigterm_as_interrupt() -> Iterator[None]:
    """Make SIGTERM raise ``KeyboardInterrupt`` (like SIGINT does)."""
    if not _in_main_thread():
        yield
        return

    def _handler(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


__all__ = [
    "EXIT_INTERRUPTED",
    "SignalFlag",
    "graceful_shutdown",
    "sigterm_as_interrupt",
]
