"""Full re-ranking oracle for the incremental channel controller.

:func:`rerank_tick` is :meth:`ChannelController.tick` without any of its
scheduling memos: every tick polls the mechanism's urgent hook, re-ranks
the whole active queue, re-probes every request's service row against
the open rows, plans an activation for every closed-bank candidate at
the current cycle and asks the device for each candidate's own
earliest-issue time; the row-timeout scan runs over every bank. It
issues through the controller's own helpers, so state evolves the same
way under either tick and the two can be compared decision by decision.

:func:`record_decisions` replaces a controller's ``tick`` (on the
instance) with one that logs ``(now, issued commands, wake)`` per call.
"""

from __future__ import annotations

from types import MethodType

from repro.controller.controller import IDLE
from repro.controller.request import RequestType
from repro.dram.commands import Command, CommandKind

__all__ = ["rerank_tick", "record_decisions", "use_oracle"]


def rerank_tick(ctrl, now: int) -> int:
    """One controller tick decided by a full re-rank."""
    if ctrl.refresh_enabled and now >= ctrl.next_ref:
        return ctrl._do_refresh(now)

    urgent = ctrl.mechanism.urgent_plan(now)
    if urgent is not None:
        return _serve_urgent(ctrl, urgent, now)

    queue = ctrl._active_queue()
    if queue:
        issued, earliest = _serve_queue(ctrl, queue, now)
        if issued:
            return now + 1
        wake = earliest
    else:
        wake = IDLE

    timeout_wake = _apply_row_timeout(ctrl, now)
    wake = min(wake, ctrl.mechanism.next_wake(now))
    return max(now + 1, min(wake, timeout_wake, ctrl.next_ref))


def _serve_urgent(ctrl, urgent, now: int) -> int:
    bank_index, plan = urgent
    if ctrl.channel.banks[bank_index].is_open:
        pre = ctrl._pre_command_for_bank(bank_index)
        earliest = ctrl.channel.earliest_issue(pre)
        if earliest <= now:
            ctrl._issue_pre(pre, now)
            return now + 1
        return earliest
    command = Command(
        plan.kind, bank=bank_index, rows=plan.rows, timings=plan.timings
    )
    earliest = ctrl.channel.earliest_issue(command)
    if earliest <= now:
        ctrl._issue_act(bank_index, command, plan, now)
        return now + 1
    return earliest


def _serve_queue(ctrl, queue, now: int) -> tuple[bool, int]:
    mechanism = ctrl.mechanism
    channel = ctrl.channel

    def row_state(request):
        bank = request.location.bank
        srow = mechanism.service_row(bank, request.location.row)
        return srow, ctrl._open_rows(bank, srow)

    def is_hit(request):
        srow, open_rows = row_state(request)
        return open_rows is not None and srow in open_rows

    earliest_any = IDLE
    evaluated = 0
    for request in ctrl.scheduler.ranked(queue, is_hit, ctrl._streak_of):
        bank = request.location.bank
        srow, open_rows = row_state(request)
        plan = None
        if open_rows is not None and srow in open_rows:
            command = Command(
                CommandKind.RD
                if request.type is RequestType.READ
                else CommandKind.WR,
                bank=bank,
                col=request.location.col,
                subarray=srow.subarray if ctrl._salp else None,
            )
        elif open_rows is not None:
            command = ctrl._pre_command(bank, srow.subarray)
        else:
            plan = mechanism.plan_activation(bank, request.location.row, now)
            command = Command(
                plan.kind, bank=bank, rows=plan.rows, timings=plan.timings
            )
        earliest = channel.earliest_issue(command)
        if earliest <= now:
            _issue(ctrl, request, command, plan, now)
            return True, now
        earliest_any = min(earliest_any, earliest)
        evaluated += 1
        if evaluated >= ctrl.config.scheduler_window:
            break
    return False, earliest_any


def _issue(ctrl, request, command, plan, now: int) -> None:
    bank = command.bank
    kind = command.kind
    if kind in (CommandKind.RD, CommandKind.WR):
        result = ctrl._issue(command, now)
        ctrl.hit_streak[bank] += 1
        ctrl.bank_last_use[bank] = now
        ctrl.stats["row_hits"] += 1
        ctrl._dequeue(request)
        if kind is CommandKind.RD:
            ctrl.stats["reads_served"] += 1
            ctrl._complete(request, result.data_at)
        else:
            ctrl.stats["writes_served"] += 1
            ctrl._complete(request, result.done_at)
    elif kind is CommandKind.PRE:
        ctrl._issue_pre(command, now)
        ctrl.stats["row_conflicts"] += 1
    else:
        ctrl.stats["row_misses"] += 1
        if plan.is_restore:
            ctrl.stats["restore_activations"] += 1
        ctrl._issue_act(bank, command, plan, now)


def _apply_row_timeout(ctrl, now: int) -> int:
    if ctrl.row_timeout is None:
        return IDLE
    next_expiry = IDLE
    for bank_index, bank in enumerate(ctrl.channel.banks):
        if not bank.is_open or ctrl.bank_pending[bank_index] > 0:
            continue
        expiry = ctrl.bank_last_use[bank_index] + ctrl.row_timeout
        if expiry > now:
            next_expiry = min(next_expiry, expiry)
            continue
        pre = ctrl._pre_command_for_bank(bank_index)
        earliest = ctrl.channel.earliest_issue(pre)
        if earliest <= now:
            ctrl._issue_pre(pre, now)
            return now + 1
        next_expiry = min(next_expiry, earliest)
    return next_expiry


def use_oracle(ctrl) -> None:
    """Make ``ctrl`` decide every tick by a full re-rank."""
    ctrl.tick = MethodType(rerank_tick, ctrl)


def record_decisions(ctrl) -> list:
    """Log every tick of ``ctrl`` as ``(now, issued commands, wake)``.

    Wraps whichever ``tick`` the controller has now (the incremental one,
    or the oracle after :func:`use_oracle`), and the channel's ``issue``,
    both on the instances only.
    """
    log: list = []
    issued: list = []
    tick = ctrl.tick
    channel = ctrl.channel
    issue = channel.issue

    def logged_issue(command, now, *args, **kwargs):
        issued.append(command)
        return issue(command, now, *args, **kwargs)

    def logged_tick(now):
        issued.clear()
        wake = tick(now)
        log.append((now, tuple(issued), wake))
        return wake

    channel.issue = logged_issue
    ctrl.tick = logged_tick
    return log
