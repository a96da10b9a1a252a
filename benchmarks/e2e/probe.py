"""Host speed: a fixed pure-Python loop timed inside every process of a sample, and steal.

The benchmark's hosts share their cores with other tenants.  Measured
on a 2-core x86 KVM guest, each core's speed changes from second to
second, and whole periods run 1.5 to 1.9 times slower, for the
simulator and for this loop alike.  In busy periods the hypervisor also
takes the CPUs away for up to 15% of the time (steal), more often when
both are busy.  Two corrections undo most of it.

*Steal* comes off the wall time first: :func:`cpu_ticks` reads
``/proc/stat`` around a window, and :func:`steal_share` is the share of
the CPU time wanted meanwhile that the host took.

*Slowness* is then read during the window, not around it.  A probe
timed just before and just after each rep removes little of the noise:
30 same-input reps of ``backlog`` in one process spread by 22% (IQR
over median) raw and by 19% scaled that way.  Here, every
:data:`PERIOD_S` seconds of a process's CPU time (``ITIMER_PROF``, so an
idle process takes no readings), a signal handler times the loop in
thread CPU time, which excludes steal, and appends ``(start, seconds)``
to a file of its own.  Forked pool workers arm their own timer
(``os.register_at_fork``).  A window's slowness is the 10%-trimmed mean
reading over :data:`QUIET_READING_S`; the trim drops the odd reading a
page fault inflated.  The loop costs ~4% of the CPU time it interrupts.

The loop has two halves.  The memory half reads a 26 MiB pool of small
tuples in random order, with heap and dict traffic.  The interpreter
half calls methods and updates a set, a dict and a list, and sorts a
small list in place.  Under contention the memory half alone slowed
less than the simulator (the log of a rep's time rose 1.1 to 1.6 times
as fast as the log of the half's slowness, over 18 same-input samples
per workload) and the interpreter half more (0.75 to 0.95 times); their
sum tracks it (0.9 to 1.2 times).  Scaled that way, those samples spread
by 3.6 to 4.2% (standard deviation over mean), against 9.2 to 10% with
steal removed alone.

Neither half allocates an object the garbage collector tracks, so the
loop never triggers a collection, and the pool's tuples are untracked,
so it adds nothing to the program's collections.  Nothing in it depends
on the program under test, so a change to the program cannot move it.
The pool counts in every process's RSS; :attr:`Sampler.rss_mib` is that
share, which the sample subtracts.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import struct
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter, thread_time
from typing import List, Optional, Sequence, Tuple

#: A reading in a quiet period on the 2-core x86 host, taken as the
#: reference host (the quickest readings there were ~10% faster).
#: Scaled times are in seconds of that host; the constant scales every
#: value alike, so it moves no comparison.
QUIET_READING_S = 1.4e-3

POOL_SIZE = 200_000
STEPS = 800
PERIOD_S = 0.05
TRIM = 0.1

_RECORD = struct.Struct("dd")


def _rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))


class _Mixer:
    """State of the loop's interpreter half."""

    __slots__ = ("total", "last", "table", "seen", "stack", "small")

    def __init__(self) -> None:
        self.total = 0
        self.last = 0
        self.table = dict.fromkeys(range(2048), 0)
        self.seen = set(range(0, 4096, 2))
        self.stack: List[int] = []
        self.small = list(range(16))

    def step(self, value: int, weight: int) -> bool:
        self.total += weight
        if value & 1:
            self.seen.add(value & 4095)
        else:
            self.seen.discard(value & 4095)
        slot = self.table[value & 2047]
        self.table[value & 2047] = (slot + 1) & 7
        self.stack.append(weight)
        if len(self.stack) > 64:
            del self.stack[:32]
        return slot > 3

    def check(self, value: int) -> bool:
        return isinstance(value, int) and value > self.last


class Sampler:
    """Takes host-speed readings in this process and the ones it forks."""

    def __init__(self, directory: Path) -> None:
        started = perf_counter()
        rss = _rss_kib()
        rng = random.Random(3)
        self._pool = tuple((index, 2 * index + 1) for index in range(POOL_SIZE))
        self._order = tuple(rng.randrange(POOL_SIZE) for _ in range(STEPS))
        self._counts = dict.fromkeys(range(1024), 0)
        self._heap: List[int] = []
        self._mixer = _Mixer()
        #: RSS the pool adds to this process and to each forked worker.
        self.rss_mib = (_rss_kib() - rss) / 1024
        #: Seconds spent building the pool, which is not the program's set-up.
        self.build_s = perf_counter() - started
        self._directory = directory
        self._fd: Optional[int] = None

    def start(self) -> None:
        """Arm the timer here and in every process forked from now on."""
        self._directory.mkdir(parents=True, exist_ok=True)
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.siginterrupt(signal.SIGPROF, False)
        os.register_at_fork(after_in_child=self._arm)
        self._arm()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def _arm(self) -> None:
        path = self._directory / f"{os.getpid()}.bin"
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _on_signal(self, _signum, _frame) -> None:
        pool, order, counts, heap = self._pool, self._order, self._counts, self._heap
        mixer = self._mixer
        small = mixer.small
        when = perf_counter()
        started = thread_time()
        heap.clear()
        for index in order:
            value, weight = pool[index]
            counts[index & 1023] = weight
            heappush(heap, value ^ counts[value & 1023])
            if len(heap) > 256:
                heappop(heap)
        for index in order:
            value, weight = pool[index]
            if mixer.step(value, weight):
                mixer.last = value
            elif mixer.check(weight):
                heappush(heap, value ^ weight)
                if len(heap) > 256:
                    heappop(heap)
            if index & 7 == 0:
                small[index & 15] = value
                small.sort()
        seconds = thread_time() - started
        os.write(self._fd, _RECORD.pack(when, seconds))

    def readings(self, start: float, end: float) -> List[float]:
        """Readings any process took in ``[start, end]`` (``perf_counter`` time)."""
        found = []
        for path in sorted(self._directory.glob("*.bin")):
            for when, seconds in _RECORD.iter_unpack(path.read_bytes()):
                if start <= when <= end:
                    found.append(seconds)
        return found


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, stolen)`` clock ticks of all CPUs since boot (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(field) for field in fh.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq = fields[:7]
    stolen = fields[7] if len(fields) > 7 else 0
    return user + nice + system + irq + softirq, stolen


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """The share of the CPU time wanted between two :func:`cpu_ticks` that the host took."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


def slowness(readings: Sequence[float]) -> float:
    """How much slower than the quiet reference host ``readings`` ran."""
    if not readings:
        return 1.0
    ordered = sorted(readings)
    cut = int(len(ordered) * TRIM)
    return statistics.mean(ordered[cut:len(ordered) - cut]) / QUIET_READING_S
