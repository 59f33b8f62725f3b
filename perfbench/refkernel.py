"""Fixed pure-Python reference kernel and host-speed normalization.

The host this benchmark runs on changes speed in phases that last from
under a tenth of a second to several seconds (shared cores), so no raw
timing repeats within a tenth. The benchmark therefore splits every
timed region into slices at its natural boundaries, measures the host's
speed with this kernel at each boundary and every few tens of
milliseconds inside each slice, and scales each slice by the speed
measured around and during it::

    normalized_s = wall_s * measured_rate / NOMINAL_RATE

A slice that ran while the host was at half speed took twice the wall
time and measured half the rate, so its normalized time is unchanged.
The result still reads in seconds: the time the slice would have taken
on a host whose kernel rate is ``NOMINAL_RATE``.

The kernel lives here, not in the package under test, on purpose: a
reference that changes with the code it normalizes cannot normalize it.
Never change ``kernel`` or ``NOMINAL_RATE`` without re-measuring the
baseline, since every normalized figure is in their units.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

__all__ = ["NOMINAL_RATE", "kernel", "burst", "Normalizer"]

#: Kernel iterations per burst (about 3 to 6 ms on a 2020s x86 core,
#: depending on the host's speed phase).
BURST_ITERATIONS = 1_000
#: Bursts run back to back at each slice boundary.
BOUNDARY_BURSTS = 4
#: Interval between the bursts sampled inside a slice.
SAMPLE_PERIOD_S = 0.05

#: The kernel rate, in million iterations per second, that normalized
#: seconds refer to.
NOMINAL_RATE = 0.3


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = nxt

    def bump(self, delta: int) -> int:
        self.value += delta
        return self.value


#: A table of 2**18 two-element lists (about 25 MB), touched at a
#: data-dependent index every iteration, so the kernel also waits on
#: memory the way the simulator's LLC, page-table and trace state do.
#: A kernel that only ran from the first-level caches would slow down
#: far more than the simulator in the host's slow phases.
TABLE_BITS = 18
_TABLE = [[i, 0] for i in range(1 << TABLE_BITS)]


def kernel(iterations: int) -> int:
    """A fixed mix of the operations a cycle simulator spends time on.

    Dict probes and inserts, attribute reads and writes on slotted
    objects, method calls, small tuple and list allocation, a heap, and
    one dependent access into a table larger than the host's caches:
    the same interpreter and memory paths the simulator's cores, caches
    and controller exercise. Returns a checksum so the work cannot be
    skipped.
    """
    big = _TABLE
    mask = (1 << TABLE_BITS) - 1
    table: dict[int, _Node] = {}
    heap: list[tuple[int, int, int]] = []
    head = None
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 4095
        node = table.get(key)
        if node is None:
            head = _Node(key, i, head)
            table[key] = head
            node = head
        value = node.bump(i & 7)
        slot = big[(i * 40503 + acc) & mask]
        slot[1] = value
        item = (key, value & 255, i)
        if i & 3 == 0:
            heapq.heappush(heap, item)
        elif heap and i & 3 == 1:
            acc += heapq.heappop(heap)[1]
        window = [key, value, acc]
        acc = (acc + max(window) - min(window) + slot[0]) & 0xFFFFFFFF
    return acc


def burst() -> tuple[float, float, float]:
    """One short kernel run: ``(start, end, rate in Mops)``.

    The cyclic collector is paused so no collection of the caller's
    garbage lands inside the burst; the kernel frees what it allocates
    by reference counting.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel(BURST_ITERATIONS)
        end = time.perf_counter()
    finally:
        if was_enabled:
            gc.enable()
    return start, end, BURST_ITERATIONS / (end - start) / 1e6


class Normalizer:
    """Cut a timed region into kernel-bracketed, kernel-sampled slices.

    Call :meth:`mark` at the start of the region and at every natural
    boundary inside it (a task, a campaign event), and :meth:`stop`
    right after it. Each boundary ends the open slice, runs
    ``BOUNDARY_BURSTS`` kernel bursts, and opens the next slice once
    they are done. While the region runs, a ``SIGALRM`` every
    ``SAMPLE_PERIOD_S`` runs one more burst between two bytecodes of the
    code under test. A slice's host speed is the mean burst rate of its
    two boundaries and of the bursts sampled inside it, and the sampled
    bursts' own time is subtracted from its wall time. Kernel time
    therefore never counts, and a slice of several seconds is normalized
    by the speed the host actually ran at during it, not only at its
    ends. :meth:`stop` returns ``(label, wall_s, normalized_s)`` per
    slice.
    """

    def __init__(self) -> None:
        #: Mean burst rate (Mops) of each boundary, in order.
        self.rates: list[float] = []
        self._sampled: list[tuple[float, float, float]] = []
        self._open: "tuple[str, float] | None" = None
        #: (label, start, end, index of the boundary before it).
        self._closed: list[tuple[str, float, float, int]] = []
        self._previous_handler = None
        self._armed = False
        #: Set while boundary bursts run: a sample landing inside one
        #: would inflate its time, so it is skipped.
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._sampled.append(burst())

    def _arm(self) -> None:
        self._armed = True
        self._previous_handler = signal.signal(signal.SIGALRM,
                                               self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)

    def _disarm(self) -> None:
        if not self._armed:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._armed = False

    def _boundary(self, next_label: "str | None") -> None:
        self._busy = True
        now = time.perf_counter()
        if self._open is not None:
            label, started = self._open
            self._closed.append((label, started, now, len(self.rates) - 1))
        rates = [burst()[2] for _ in range(BOUNDARY_BURSTS)]
        self.rates.append(sum(rates) / len(rates))
        self._open = (
            None if next_label is None
            else (next_label, time.perf_counter())
        )
        self._busy = False

    def mark(self, label: str) -> None:
        """End the open slice (if any) and open one named ``label``."""
        if not self._armed:
            self._arm()
        self._boundary(label)

    def stop(self) -> list[tuple[str, float, float]]:
        self._disarm()
        self._boundary(None)
        slices = []
        sampled = sorted(self._sampled)
        for label, start, end, before in self._closed:
            inside = [b for b in sampled if start <= b[0] and b[1] <= end]
            wall = (end - start) - sum(b[1] - b[0] for b in inside)
            rates = [self.rates[before], self.rates[before + 1]]
            rates.extend(b[2] for b in inside)
            rate = sum(rates) / len(rates)
            slices.append((label, wall, wall * rate / NOMINAL_RATE))
        self._closed = []
        self._sampled = []
        return slices
