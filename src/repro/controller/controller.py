"""Per-channel memory controller.

Implements the paper's Table 2 controller: 64-entry read and write queues,
FR-FCFS-Cap scheduling, a 75 ns timeout row-buffer policy, write draining
with high/low watermarks, periodic all-bank refresh, and the CROW
mechanism hook for activation planning.

The controller is event-paced: :meth:`ChannelController.tick` issues at
most one DRAM command (the command bus carries one command per cycle) and
returns the next cycle at which calling it again can possibly make
progress, so the simulation loop can skip dead time.

Scheduling is incremental. A controller *epoch* advances on every
enqueue, dequeue and issued command; each bank has its own epoch that
advances on every command to that bank (and, for REF, to every bank).
A scheduling pass that issued nothing is kept and reused while the
controller epoch stands still; each request memoizes its row-hit status
under its bank's epoch; and within a pass the earliest-issue time is
computed once per command class, bank and subarray. The mechanism is
asked for an activation plan only for the candidate actually issued.
``docs/internals.md`` §15 states what each epoch guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.controller.mechanism import ActivationPlan, Mechanism, NoMechanism
from repro.controller.request import MemRequest, RequestType
from repro.controller.scheduler import FrFcfsCap, Scheduler
from repro.dram.commands import Command, CommandKind, RowId
from repro.dram.device import DramChannel, IssueResult
from repro.dram.timing import REF_COMMANDS_PER_WINDOW
from repro.errors import ConfigError
from repro.units import ns_to_cycles

__all__ = ["ControllerConfig", "ChannelController"]

#: Sentinel wake time for "nothing to do until an external event".
IDLE = 1 << 62

#: Command classes of a scheduling candidate besides its column access,
#: whose class is the request's own ``RequestType``.
_PRE_CLASS = "pre"
_ACT_CLASS = "act"


@dataclass(frozen=True)
class ControllerConfig:
    """Controller structure and policy parameters (Table 2 defaults)."""

    read_queue_size: int = 64
    write_queue_size: int = 64
    write_drain_high: int = 48
    write_drain_low: int = 16
    fr_fcfs_cap: int = 4
    #: Timeout row policy: close an open row after this long without
    #: pending requests to it. ``None`` selects an open-page policy.
    row_timeout_ns: float | None = 75.0
    #: Maximum ranked candidates evaluated for readiness per tick. The
    #: window counts candidates, not distinct commands: candidates that
    #: share a command class, bank and subarray each take a slot even
    #: though their earliest-issue time is computed once per pass.
    scheduler_window: int = 12
    #: Enable store-to-load forwarding from the write queue.
    write_forwarding: bool = True

    def __post_init__(self) -> None:
        if self.read_queue_size < 1 or self.write_queue_size < 1:
            raise ConfigError("queue sizes must be >= 1")
        if not 0 < self.write_drain_low <= self.write_drain_high:
            raise ConfigError("invalid write drain watermarks")
        if self.write_drain_high > self.write_queue_size:
            raise ConfigError("drain_high cannot exceed the write queue size")
        if self.scheduler_window < 1:
            raise ConfigError("scheduler_window must be >= 1")


class ChannelController:
    """Scheduler + state machine for one DRAM channel."""

    def __init__(
        self,
        channel: DramChannel,
        mechanism: Mechanism | None = None,
        scheduler: Scheduler | None = None,
        config: ControllerConfig | None = None,
        schedule_event: Callable[[int, Callable[[], None]], None] | None = None,
        refresh_enabled: bool = True,
    ) -> None:
        self.channel = channel
        self.geometry = channel.geometry
        self.timing = channel.timing
        self.config = config if config is not None else ControllerConfig()
        self.mechanism = (
            mechanism
            if mechanism is not None
            else NoMechanism(self.geometry, self.timing)
        )
        self.scheduler = (
            scheduler if scheduler is not None else FrFcfsCap(self.config.fr_fcfs_cap)
        )
        self.schedule_event = schedule_event
        self.refresh_enabled = refresh_enabled
        # Construction-time override detection: mechanisms that pace
        # their own work (HiRA) override next_wake, and those that start
        # activations of their own (RowHammer, HiRA, CnC-PRAC) override
        # urgent_plan; everyone else pays one `is not None` branch per
        # tick instead of a method call.
        mechanism_type = type(self.mechanism)
        self._mech_wake = (
            self.mechanism.next_wake
            if mechanism_type.next_wake is not Mechanism.next_wake
            else None
        )
        self._mech_urgent = (
            self.mechanism.urgent_plan
            if mechanism_type.urgent_plan is not Mechanism.urgent_plan
            else None
        )

        self.read_q: list[MemRequest] = []
        self.write_q: list[MemRequest] = []
        self.drain_mode = False
        self.next_ref = self.timing.trefi if refresh_enabled else IDLE
        self.refresh_backlog = 0
        self.hit_streak = [0] * self.geometry.banks_per_channel
        self.bank_last_use = [0] * self.geometry.banks_per_channel
        self.bank_pending = [0] * self.geometry.banks_per_channel
        if self.config.row_timeout_ns is None:
            self.row_timeout = None
        else:
            self.row_timeout = ns_to_cycles(
                self.config.row_timeout_ns, self.timing.clock_mhz
            )

        # Memoized command objects: PRE and REF are fully determined by
        # (bank, subarray), and Command is immutable, so the scheduler can
        # reuse one instance instead of re-validating a frozen dataclass
        # on every readiness evaluation (a top cost in profile runs).
        self._salp = channel.salp
        self._pre_cmds = tuple(
            Command(CommandKind.PRE, bank=b)
            for b in range(self.geometry.banks_per_channel)
        )
        self._salp_pre_cmds: dict[tuple[int, int], Command] = {}
        self._ref_cmd = Command(CommandKind.REF)
        # Activation commands are likewise immutable and fully determined
        # by (kind, bank, rows, timings); the same plan recurs (a CROW-
        # table hit, an urgent plan re-polled until it issues), so each
        # command is built once.
        self._act_cmds: dict[tuple, Command] = {}
        # Plain ACTs keyed by (bank, subarray), used only to ask the
        # device for a closed bank's earliest activation time: that time
        # depends on the bank (subarray, under SALP) and on rank-scope
        # state, never on which activation the mechanism will plan.
        self._act_probes: dict[tuple[int, int], Command] = {}

        # Incremental scheduling state: derived, never serialized. The
        # controller epoch advances on enqueue, dequeue and every issued
        # command; a bank's epoch is set to the controller epoch by any
        # command to that bank (REF: to every bank).
        self._epoch = 0
        self._bank_epoch = [0] * self.geometry.banks_per_channel
        #: The last scheduling pass that issued nothing:
        #: ``(epoch, queue, candidates, earliest)``, candidates being
        #: ``(earliest, request, row memo)`` in rank order.
        self._failed_pass: tuple | None = None
        #: ``(epoch, next expiry)`` of the last row-timeout scan that
        #: issued nothing.
        self._timeout_memo: tuple[int, int] = (-1, 0)

        # Statistics.
        self.stats = {
            "reads_served": 0,
            "writes_served": 0,
            "row_hits": 0,
            "row_misses": 0,
            "row_conflicts": 0,
            "forwarded_reads": 0,
            "restore_activations": 0,
            "refreshes": 0,
            "read_latency_sum": 0,
            "write_drains": 0,
        }
        #: Optional telemetry hook: a ``Histogram`` observing read
        #: latencies (set by :class:`repro.telemetry.SystemTelemetry`;
        #: ``None`` — the default — costs one branch per completion).
        self.latency_hist = None

    # ------------------------------------------------------------------
    # Request admission
    # ------------------------------------------------------------------
    def can_accept(self, type: RequestType) -> bool:
        """Whether the queue for ``type`` has a free slot."""
        if type is RequestType.READ:
            return len(self.read_q) < self.config.read_queue_size
        return len(self.write_q) < self.config.write_queue_size

    def enqueue(self, request: MemRequest, now: int) -> bool:
        """Accept a request; returns False when the queue is full."""
        if not self.can_accept(request.type):
            return False
        request.arrival = now
        if request.type is RequestType.READ:
            if self.config.write_forwarding:
                for pending in self.write_q:
                    if pending.address == request.address:
                        self.stats["forwarded_reads"] += 1
                        self._complete(request, now + self.timing.tcl)
                        return True
            self.read_q.append(request)
        else:
            self.write_q.append(request)
            if len(self.write_q) >= self.config.write_drain_high:
                if not self.drain_mode:
                    self.stats["write_drains"] += 1
                self.drain_mode = True
        self.bank_pending[request.location.bank] += 1
        self._epoch += 1
        return True

    @property
    def pending_requests(self) -> int:
        """Requests currently waiting in both queues."""
        return len(self.read_q) + len(self.write_q)

    # ------------------------------------------------------------------
    # Main issue loop
    # ------------------------------------------------------------------
    def tick(self, now: int) -> int:
        """Issue at most one command; return the next useful wake time."""
        if self.refresh_enabled and now >= self.next_ref:
            return self._do_refresh(now)

        if self._mech_urgent is not None:
            urgent = self._mech_urgent(now)
            if urgent is not None:
                return self._serve_urgent(urgent, now)

        queue = self._active_queue()
        if queue:
            issued, earliest = self._serve_queue(queue, now)
            if issued:
                return now + 1
            wake = earliest
        else:
            wake = IDLE

        timeout_wake = self._apply_row_timeout(now)
        if self._mech_wake is not None:
            wake = min(wake, self._mech_wake(now))
        return max(now + 1, min(wake, timeout_wake, self.next_ref))

    def _issue(self, command: Command, now: int) -> IssueResult:
        """Issue ``command`` on the channel and advance the epochs.

        Every command the controller issues goes through here, so no
        scheduling memo outlives the state it was computed from.
        """
        result = self.channel.issue(command, now)
        epoch = self._epoch + 1
        self._epoch = epoch
        if command.kind is CommandKind.REF:
            bank_epoch = self._bank_epoch
            bank_epoch[:] = [epoch] * len(bank_epoch)
        else:
            self._bank_epoch[command.bank] = epoch
        return result

    # ------------------------------------------------------------------
    # Refresh handling
    # ------------------------------------------------------------------
    def _do_refresh(self, now: int) -> int:
        """Progress toward the pending REF; return the next wake time."""
        # Precharge any open bank first (one PRE per tick).
        for bank_index, bank in enumerate(self.channel.banks):
            if not bank.is_open:
                continue
            pre = self._pre_command_for_bank(bank_index)
            earliest = self.channel.earliest_issue(pre)
            if earliest <= now:
                self._issue_pre(pre, now)
                return now + 1
            return earliest
        ref = self._ref_cmd
        earliest = self.channel.earliest_issue(ref)
        if earliest > now:
            return earliest
        cursor = self.channel.refresh_cursor
        rows_per_ref = max(1, self.geometry.rows_per_bank // REF_COMMANDS_PER_WINDOW)
        self._issue(ref, now)
        self.stats["refreshes"] += 1
        self.mechanism.on_refresh(range(cursor, cursor + rows_per_ref), now)
        self.next_ref += self.timing.trefi
        return self.channel.ref_busy_until

    # ------------------------------------------------------------------
    # Mechanism-initiated (urgent) activations
    # ------------------------------------------------------------------
    def _serve_urgent(self, urgent: tuple[int, ActivationPlan], now: int) -> int:
        """Issue one command toward an urgent plan; return the wake time."""
        bank_index, plan = urgent
        bank = self.channel.banks[bank_index]
        if bank.is_open:
            pre = self._pre_command_for_bank(bank_index)
            earliest = self.channel.earliest_issue(pre)
            if earliest <= now:
                self._issue_pre(pre, now)
                return now + 1
            return earliest
        command = self._act_command(bank_index, plan)
        earliest = self.channel.earliest_issue(command)
        if earliest <= now:
            self._issue_act(bank_index, command, plan, now)
            return now + 1
        return earliest

    # ------------------------------------------------------------------
    # Queue service
    # ------------------------------------------------------------------
    def _active_queue(self) -> list[MemRequest]:
        if self.drain_mode:
            if len(self.write_q) <= self.config.write_drain_low:
                self.drain_mode = False
            else:
                return self.write_q
        if self.read_q:
            return self.read_q
        return self.write_q

    def _serve_queue(
        self, queue: list[MemRequest], now: int
    ) -> tuple[bool, int]:
        """Try to issue one command for the highest-priority ready request.

        Returns ``(issued, earliest)`` where ``earliest`` is the soonest
        time any evaluated candidate could have issued (IDLE if none).

        A pass that issues nothing is kept. Until the controller epoch
        moves, the ranking and every candidate's earliest-issue time are
        unchanged (neither depends on ``now``), so a later tick on the
        same queue issues the first kept candidate that has become ready,
        exactly as a full re-rank would.
        """
        kept = self._failed_pass
        if kept is not None and kept[0] == self._epoch and kept[1] is queue:
            if kept[3] > now:
                return False, kept[3]
            for earliest, request, memo in kept[2]:
                if earliest <= now:
                    self._issue_for_request(request, memo, now)
                    return True, now

        bank_epoch = self._bank_epoch
        service_row = self.mechanism.service_row
        open_rows_of = self._open_rows

        def is_hit(request: MemRequest) -> bool:
            location = request.location
            bank = location.bank
            memo = request.row_memo
            if memo is not None and memo[0] == bank_epoch[bank]:
                return memo[3]
            srow = service_row(bank, location.row)
            open_rows = open_rows_of(bank, srow)
            hit = open_rows is not None and srow in open_rows
            request.row_memo = (bank_epoch[bank], srow, open_rows, hit)
            return hit

        salp = self._salp
        earliest_issue = self.channel.earliest_issue
        class_earliest: dict[tuple, int] = {}
        candidates = []
        earliest_any = IDLE
        window = self.config.scheduler_window
        for request in self.scheduler.ranked(queue, is_hit, self._streak_of):
            bank = request.location.bank
            memo = request.row_memo
            if memo is None or memo[0] != bank_epoch[bank]:
                is_hit(request)     # schedulers need not probe every request
                memo = request.row_memo
            srow = memo[1]
            if memo[3]:
                command_class = request.type
            elif memo[2] is not None:
                command_class = _PRE_CLASS
            else:
                command_class = _ACT_CLASS
            key = (command_class, bank, srow.subarray if salp else 0)
            earliest = class_earliest.get(key)
            if earliest is None:
                if command_class is _ACT_CLASS:
                    command = self._act_probe(bank, srow)
                elif command_class is _PRE_CLASS:
                    command = self._pre_command(bank, srow.subarray)
                else:
                    command = self._column_command(request, bank, srow)
                earliest = class_earliest[key] = earliest_issue(command)
            if earliest <= now:
                self._issue_for_request(request, memo, now)
                return True, now
            candidates.append((earliest, request, memo))
            if earliest < earliest_any:
                earliest_any = earliest
            if len(candidates) >= window:
                break
        self._failed_pass = (self._epoch, queue, candidates, earliest_any)
        return False, earliest_any

    def _streak_of(self, request: MemRequest) -> int:
        return self.hit_streak[request.location.bank]

    def _column_command(
        self, request: MemRequest, bank: int, srow: RowId
    ) -> Command:
        """The RD/WR serving ``request`` from its open row (memoized)."""
        subarray = srow.subarray if self._salp else None
        cached = request.col_cmd
        if cached is not None and cached[0] == subarray:
            return cached[1]
        command = Command(
            CommandKind.RD if request.type is RequestType.READ else CommandKind.WR,
            bank=bank,
            col=request.location.col,
            subarray=subarray,
        )
        request.col_cmd = (subarray, command)
        return command

    def _act_command(self, bank: int, plan: ActivationPlan) -> Command:
        """The activation command carrying out ``plan`` (memoized)."""
        key = (plan.kind, bank, plan.rows, plan.timings)
        command = self._act_cmds.get(key)
        if command is None:
            command = Command(
                plan.kind, bank=bank, rows=plan.rows, timings=plan.timings
            )
            self._act_cmds[key] = command
        return command

    def _act_probe(self, bank: int, srow: RowId) -> Command:
        """A plain ACT whose earliest-issue time is any activation's for
        ``srow``'s bank (and subarray, under SALP)."""
        key = (bank, srow.subarray if self._salp else 0)
        command = self._act_probes.get(key)
        if command is None:
            command = self._act_probes[key] = Command(
                CommandKind.ACT, bank=bank, rows=(srow,)
            )
        return command

    def _issue_for_request(
        self, request: MemRequest, memo: tuple, now: int
    ) -> None:
        """Issue the next command ``request`` needs, given its row memo."""
        _, srow, open_rows, hit = memo
        bank = request.location.bank
        if hit:
            command = self._column_command(request, bank, srow)
            result = self._issue(command, now)
            self.hit_streak[bank] += 1
            self.bank_last_use[bank] = now
            self.stats["row_hits"] += 1
            self._dequeue(request)
            if command.kind is CommandKind.RD:
                self.stats["reads_served"] += 1
                self._complete(request, result.data_at)
            else:
                self.stats["writes_served"] += 1
                self._complete(request, result.done_at)
        elif open_rows is not None:
            self._issue_pre(self._pre_command(bank, srow.subarray), now)
            self.stats["row_conflicts"] += 1
        else:
            # Planned here, at the issuing tick, and only for the issued
            # candidate: plan_activation must be a pure function of the
            # mechanism state and ``now``.
            plan = self.mechanism.plan_activation(
                bank, request.location.row, now
            )
            self.stats["row_misses"] += 1
            if plan.is_restore:
                self.stats["restore_activations"] += 1
            self._issue_act(bank, self._act_command(bank, plan), plan, now)

    def _issue_act(
        self, bank: int, command: Command, plan: ActivationPlan, now: int
    ) -> None:
        self._issue(command, now)
        self.hit_streak[bank] = 0
        self.bank_last_use[bank] = now
        self.mechanism.on_activate(bank, plan, now)

    def _dequeue(self, request: MemRequest) -> None:
        queue = self.read_q if request.type is RequestType.READ else self.write_q
        queue.remove(request)
        self.bank_pending[request.location.bank] -= 1
        self._epoch += 1

    def _complete(self, request: MemRequest, finish: int) -> None:
        request.completed_at = finish
        if request.type is RequestType.READ:
            latency = finish - request.arrival
            self.stats["read_latency_sum"] += latency
            if self.latency_hist is not None:
                self.latency_hist.observe(latency)
        if request.callback is None:
            return
        if self.schedule_event is None:
            request.callback(request, finish)
        else:
            self.schedule_event(finish, request)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self, encode_request) -> dict:
        """Queues, policy state, statistics and the mechanism's state.

        ``encode_request`` maps a queued :class:`MemRequest` to its state
        dict (the owner knows how to tag callbacks). A request is never
        simultaneously queued and scheduled on the event heap — completion
        always dequeues first — so queue entries are serialized here and
        in-flight completions by the event heap, without aliasing.
        ``latency_hist`` is telemetry-owned wiring; its contents restore
        with the telemetry state.
        """
        return {
            "read_q": [encode_request(r) for r in self.read_q],
            "write_q": [encode_request(r) for r in self.write_q],
            "drain_mode": self.drain_mode,
            "next_ref": self.next_ref,
            "refresh_backlog": self.refresh_backlog,
            "hit_streak": list(self.hit_streak),
            "bank_last_use": list(self.bank_last_use),
            "bank_pending": list(self.bank_pending),
            "stats": dict(self.stats),
            "mechanism": self.mechanism.state_dict(),
        }

    def load_state_dict(self, state: dict, decode_request) -> None:
        self.read_q = [decode_request(r) for r in state["read_q"]]
        self.write_q = [decode_request(r) for r in state["write_q"]]
        self.drain_mode = state["drain_mode"]
        self.next_ref = state["next_ref"]
        self.refresh_backlog = state["refresh_backlog"]
        self.hit_streak = list(state["hit_streak"])
        self.bank_last_use = list(state["bank_last_use"])
        self.bank_pending = list(state["bank_pending"])
        self.stats = dict(state["stats"])
        self.mechanism.load_state_dict(state["mechanism"])
        # New queues, bank state and mechanism state: drop every memo.
        self._epoch += 1
        self._bank_epoch = [self._epoch] * len(self._bank_epoch)
        self._failed_pass = None

    # ------------------------------------------------------------------
    # Row-buffer policy
    # ------------------------------------------------------------------
    def _apply_row_timeout(self, now: int) -> int:
        """Close idle open rows after the timeout; return next expiry.

        A scan that issued nothing stays valid while the controller
        epoch stands still and ``now`` is below its result: no bank's
        open state, last use, pending count or earliest PRE can change
        without an epoch step.
        """
        if self.row_timeout is None:
            return IDLE
        epoch, kept = self._timeout_memo
        if epoch == self._epoch and now < kept:
            return kept
        next_expiry = IDLE
        for bank_index, bank in enumerate(self.channel.banks):
            if not bank.is_open:
                continue
            if self.bank_pending[bank_index] > 0:
                continue
            expiry = self.bank_last_use[bank_index] + self.row_timeout
            if expiry > now:
                next_expiry = min(next_expiry, expiry)
                continue
            pre = self._pre_command_for_bank(bank_index)
            earliest = self.channel.earliest_issue(pre)
            if earliest <= now:
                self._issue_pre(pre, now)
                return now + 1
            next_expiry = min(next_expiry, earliest)
        self._timeout_memo = (self._epoch, next_expiry)
        return next_expiry

    def _issue_pre(self, pre: Command, now: int) -> None:
        result = self._issue(pre, now)
        self.hit_streak[pre.bank] = 0
        assert result.precharge is not None
        self.mechanism.on_precharge(pre.bank, result.precharge, now)

    # ------------------------------------------------------------------
    # SALP-aware helpers
    # ------------------------------------------------------------------
    def _open_rows(self, bank_index: int, srow: RowId):
        bank = self.channel.banks[bank_index]
        if self._salp:
            return bank.subarrays[srow.subarray].open_rows
        return bank.open_rows

    def _pre_command(self, bank_index: int, subarray: int) -> Command:
        if self._salp:
            key = (bank_index, subarray)
            command = self._salp_pre_cmds.get(key)
            if command is None:
                command = Command(
                    CommandKind.PRE, bank=bank_index, subarray=subarray
                )
                self._salp_pre_cmds[key] = command
            return command
        return self._pre_cmds[bank_index]

    def _pre_command_for_bank(self, bank_index: int) -> Command:
        """A PRE that closes (one of) the bank's open row buffers."""
        bank = self.channel.banks[bank_index]
        if self._salp:
            for subarray, slot in bank.subarrays.items():
                if slot.is_open:
                    return self._pre_command(bank_index, subarray)
            raise ConfigError("no open subarray to precharge")
        return self._pre_cmds[bank_index]

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    @property
    def average_read_latency(self) -> float:
        """Mean arrival-to-data latency of served reads.

        **Defined for the empty case**: returns ``0.0`` (never raises)
        when no reads — demand or forwarded — were served yet, e.g. on a
        freshly-built controller or a write-only phase. Telemetry exports
        the same quantity as a ``Ratio`` whose value is ``None`` when
        undefined; this property keeps the plain-float contract for
        arithmetic consumers.
        """
        served = self.stats["reads_served"] + self.stats["forwarded_reads"]
        if not served:
            return 0.0
        return self.stats["read_latency_sum"] / served

    def row_hit_rate(self) -> float:
        """Column accesses served from open rows, as a fraction.

        **Defined for the empty case**: returns ``0.0`` (never divides)
        when no activation or column command has been issued yet. The
        telemetry ``Ratio`` form distinguishes "no traffic" (``None``)
        from "all misses" (``0.0``) for consumers that care.
        """
        hits = self.stats["row_hits"]
        total = hits + self.stats["row_misses"] + self.stats["row_conflicts"]
        return hits / total if total else 0.0
