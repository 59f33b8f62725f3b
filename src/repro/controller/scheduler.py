"""Request scheduling policies.

The paper's configuration (Table 2) uses FR-FCFS-Cap [81]: the classic
first-ready, first-come-first-served policy, with an upper limit on how
many column accesses an open row may service while older requests to other
rows wait — which improves fairness and, on average, performance over
plain FR-FCFS.

The scheduler ranks requests; the controller evaluates them in rank order
and issues the first whose next required DRAM command is ready. Ranking
and readiness are deliberately separated so the policy stays independent
of the timing engine. Schedulers are stateless: a ranking depends only on
the arguments of :meth:`Scheduler.ranked`.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.controller.request import MemRequest
from repro.errors import ConfigError

__all__ = ["Scheduler", "FrFcfs", "FrFcfsCap"]


class Scheduler:
    """Base scheduling policy: rank requests for issue consideration."""

    name = "fcfs"

    def ranked(
        self,
        requests: list[MemRequest],
        is_row_hit: Callable[[MemRequest], bool],
        bank_hit_streak: Callable[[MemRequest], int],
    ) -> Iterator[MemRequest]:
        """Yield requests in descending priority (FCFS by default).

        ``requests`` is maintained in arrival order by the controller.
        The ranking must be a pure function of ``requests``,
        ``is_row_hit`` and ``bank_hit_streak``: the controller reuses a
        ranking until one of them can have changed, so a scheduler may
        keep no state that alters its order between calls.
        """
        return iter(requests)


class FrFcfs(Scheduler):
    """First-ready FCFS: row hits first (by age), then the rest (by age)."""

    name = "fr-fcfs"

    def ranked(
        self,
        requests: list[MemRequest],
        is_row_hit: Callable[[MemRequest], bool],
        bank_hit_streak: Callable[[MemRequest], int],
    ) -> Iterator[MemRequest]:
        """Yield requests in descending scheduling priority."""
        misses = []
        for request in requests:
            if is_row_hit(request):
                yield request
            else:
                misses.append(request)
        yield from misses


class FrFcfsCap(Scheduler):
    """FR-FCFS with a cap on consecutive row hits per activation [81].

    Once a bank has serviced ``cap`` column accesses from its open row
    while other requests wait, further hits to that row lose their
    priority boost, letting older requests close the row.
    """

    name = "fr-fcfs-cap"

    def __init__(self, cap: int = 4) -> None:
        if cap < 1:
            raise ConfigError(f"cap must be >= 1, got {cap}")
        self.cap = cap

    def ranked(
        self,
        requests: list[MemRequest],
        is_row_hit: Callable[[MemRequest], bool],
        bank_hit_streak: Callable[[MemRequest], int],
    ) -> Iterator[MemRequest]:
        """Yield requests in descending scheduling priority."""
        demoted = []
        for request in requests:
            if is_row_hit(request) and bank_hit_streak(request) < self.cap:
                yield request
            else:
                demoted.append(request)
        yield from demoted
