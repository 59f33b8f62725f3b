"""Invalidation edges of the incremental channel controller.

Each test drives an incremental controller and a full re-ranking oracle
(``tests/controller/rerank_oracle.py``) through the same inputs, ticking
both on every cycle, and requires the same decision — commands issued
and wake returned — at every tick. Each scenario is built so that a memo
outliving its invalidation would make a different decision there (or
issue an illegal command, which the device rejects).
"""

from repro.baselines.chargecache import ChargeCache
from repro.baselines.salp import SalpMasa
from repro.baselines.tldram import TlDram
from repro.controller import (
    ChannelController,
    ControllerConfig,
    MemRequest,
    RequestType,
)
from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.dram import AddressMapper, DramChannel, DramGeometry, TimingParameters
from repro.dram.address import DramAddress
from repro.dram.commands import ActTimings, CommandKind, RowId
from tests.controller.rerank_oracle import record_decisions, use_oracle

GEO = DramGeometry(rows_per_bank=4096, channels=1)
TIMING = TimingParameters.lpddr4()
MAPPER = AddressMapper(GEO)


class Pair:
    """An incremental controller and its oracle, fed identical inputs."""

    def __init__(self, mechanism=Mechanism, salp=False, refresh=False,
                 **config):
        self.controllers = []
        self.logs = []
        for oracle in (False, True):
            channel = DramChannel(
                GEO, TIMING,
                salp_subarrays=GEO.subarrays_per_bank if salp else None,
            )
            controller = ChannelController(
                channel,
                mechanism=mechanism(GEO, TIMING),
                config=ControllerConfig(**config),
                refresh_enabled=refresh,
            )
            if oracle:
                use_oracle(controller)
            self.logs.append(record_decisions(controller))
            self.controllers.append(controller)
        self.inc, self.oracle = self.controllers
        self.now = 0

    def each(self, fn) -> None:
        """Apply the same set-up ``fn(controller)`` to both sides."""
        for controller in self.controllers:
            fn(controller)

    def enqueue(self, bank, row, col=0, type=RequestType.READ):
        address = MAPPER.encode(
            DramAddress(channel=0, rank=0, bank=bank, row=row, col=col)
        )
        requests = [
            MemRequest(type, address, MAPPER.decode(address))
            for _ in self.controllers
        ]
        for controller, request in zip(self.controllers, requests):
            assert controller.enqueue(request, self.now)
        return requests[0]

    def tick(self):
        """Tick both at the current cycle, then advance it by one."""
        for controller in self.controllers:
            controller.tick(self.now)
        got, want = self.logs[0][-1], self.logs[1][-1]
        assert got == want, f"incremental {got} != full re-rank {want}"
        self.now += 1
        return got

    def run_to(self, stop):
        while self.now < stop:
            self.tick()

    def issued(self, kind=None):
        """``(cycle, command)`` of every command the incremental side issued."""
        return [
            (now, command)
            for now, commands, _wake in self.logs[0]
            for command in commands
            if kind is None or command.kind is kind
        ]


def test_enqueue_between_failed_pass_and_retry():
    pair = Pair()
    pair.enqueue(bank=0, row=7)
    pair.run_to(2)                      # ACT at 0; RD not ready at 1
    assert pair.inc._failed_pass is not None
    pair.enqueue(bank=1, row=3)         # its ACT is legal after tRRD < tRCD
    pair.run_to(TIMING.trcd + 1)
    acts = pair.issued(CommandKind.ACT)
    assert [(now, c.bank) for now, c in acts] == [(0, 0), (TIMING.trrd, 1)]


def test_drain_mode_flip_alone_switches_queue():
    pair = Pair(write_drain_low=1, write_drain_high=4)
    pair.enqueue(bank=1, row=3, type=RequestType.WRITE)
    pair.enqueue(bank=1, row=4, type=RequestType.WRITE)
    pair.enqueue(bank=0, row=7)
    pair.run_to(2)                      # read's ACT at 0; its RD waits
    kept = pair.inc._failed_pass
    assert kept is not None and kept[1] is pair.inc.read_q
    epoch = pair.inc._epoch

    def flip(controller):
        controller.drain_mode = True

    pair.each(flip)                     # no enqueue: the epoch stands still
    assert pair.inc._epoch == epoch
    pair.run_to(TIMING.trcd + 1)
    acts = pair.issued(CommandKind.ACT)
    assert [(now, c.bank) for now, c in acts] == [(0, 0), (TIMING.trrd, 1)]


class RemapOnRefresh(Mechanism):
    """Serves bank 0 row 5 from copy row 0 once a REF has happened."""

    def __init__(self, geometry, timing):
        super().__init__(geometry, timing)
        self.remapped = False

    def service_row(self, bank, row):
        if self.remapped and (bank, row) == (0, 5):
            return RowId.copy(0, 0)
        return RowId.regular(row, self.geometry.rows_per_subarray)

    def plan_activation(self, bank, row, now):
        return ActivationPlan(
            kind=CommandKind.ACT, rows=(self.service_row(bank, row),)
        )

    def on_refresh(self, refreshed_rows, now):
        self.remapped = True


def test_ref_then_on_refresh_reprobes_every_bank():
    pair = Pair(mechanism=RemapOnRefresh, refresh=True)

    def prepare(controller):
        controller.next_ref = 10
        controller.channel.banks[0].ready_act = 20

    pair.each(prepare)
    request = pair.enqueue(bank=0, row=5)
    pair.tick()                         # probed while bank 0 is blocked
    assert request.row_memo[1] == RowId.regular(5, GEO.rows_per_subarray)
    pair.run_to(22)                     # REF at 20, then a pass at 21
    assert [now for now, _ in pair.issued(CommandKind.REF)] == [20]
    assert request.row_memo[1] == RowId.copy(0, 0)
    pair.run_to(20 + TIMING.trfc + 1)
    (_, act), = pair.issued(CommandKind.ACT)
    assert act.rows == (RowId.copy(0, 0),)


class TimedUrgent(Mechanism):
    """Requests one urgent ACT-c on bank 1 from cycle ``due`` on."""

    due = TIMING.trcd - 1

    def __init__(self, geometry, timing):
        super().__init__(geometry, timing)
        self.done = False

    def urgent_plan(self, now):
        if self.done or now < self.due:
            return None
        regular = RowId.regular(42, self.geometry.rows_per_subarray)
        timings = ActTimings(
            trcd=TIMING.trcd, tras_full=TIMING.tras,
            tras_early=TIMING.tras, twr=TIMING.twr,
        )
        return 1, ActivationPlan(
            kind=CommandKind.ACT_C,
            rows=(regular, RowId.copy(regular.subarray, 0)),
            timings=timings,
        )

    def on_activate(self, bank, plan, now):
        if plan.kind is CommandKind.ACT_C:
            self.done = True


def test_urgent_plan_issue_invalidates_failed_pass():
    pair = Pair(mechanism=TimedUrgent)
    pair.enqueue(bank=0, row=7)
    pair.run_to(2)
    assert pair.inc._failed_pass[3] == TIMING.trcd
    # The urgent ACT-c holds the command bus for two cycles, so the RD
    # the kept pass found ready at tRCD is not legal until tRCD + 1.
    pair.run_to(TIMING.trcd + 3)
    (act_c_at, _), = pair.issued(CommandKind.ACT_C)
    (rd_at, _), = pair.issued(CommandKind.RD)
    assert act_c_at == TIMING.trcd - 1
    assert rd_at == TIMING.trcd + 1
    assert pair.inc._mech_urgent is not None


def test_plain_mechanism_pays_no_urgent_poll():
    pair = Pair()
    assert pair.inc._mech_urgent is None


def test_service_row_remap_after_act():
    pair = Pair(mechanism=TlDram)
    pair.enqueue(bank=0, row=5, col=0)
    pair.enqueue(bank=0, row=5, col=1)
    pair.run_to(TIMING.trcd * 2 + 20)
    (_, act_c), = pair.issued(CommandKind.ACT_C)
    near = pair.inc.mechanism.service_row(0, 5)
    assert near in act_c.rows and near.kind.name == "COPY"
    assert len(pair.issued(CommandKind.RD)) == 2
    assert pair.inc.stats["row_hits"] == 2
    assert pair.inc.stats["row_misses"] == 1


def test_salp_subarrays_of_one_bank_keep_their_own_earliest():
    pair = Pair(mechanism=SalpMasa, salp=True)

    def block_subarray_0(controller):
        controller.channel.banks[0].slot(0).ready_act = 200

    pair.each(block_subarray_0)
    pair.enqueue(bank=0, row=5)                          # subarray 0
    pair.enqueue(bank=0, row=GEO.rows_per_subarray + 5)  # subarray 1
    pair.run_to(201)
    acts = pair.issued(CommandKind.ACT)
    assert [(now, c.rows[0].subarray) for now, c in acts] == [(0, 1), (200, 0)]


def test_chargecache_plans_at_issuing_cycle():
    pair = Pair(mechanism=ChargeCache)

    def seed_table(controller):
        mechanism = controller.mechanism
        # Row 9 of bank 0 was precharged so long ago that it is still
        # highly charged at cycle 1 but no longer at cycle 2.
        mechanism._table[(0, 9)] = 1 - mechanism.window_cycles

    pair.each(seed_table)
    pair.enqueue(bank=1, row=3)
    pair.enqueue(bank=0, row=9)
    pair.run_to(2)                      # bank 1 ACT at 0; bank 0 waits tRRD
    assert pair.inc._failed_pass is not None
    pair.run_to(TIMING.trrd + 1)
    acts = pair.issued(CommandKind.ACT)
    assert [(now, c.bank) for now, c in acts] == [(0, 1), (TIMING.trrd, 0)]
    assert acts[1][1].timings is None   # planned at tRRD: no longer fast
    assert pair.inc.mechanism.hits == 0


def test_scheduler_window_counts_candidates_not_commands():
    pair = Pair(scheduler_window=2)

    def block_bank_0(controller):
        controller.channel.banks[0].ready_act = 100

    pair.each(block_bank_0)
    pair.enqueue(bank=0, row=1)
    pair.enqueue(bank=0, row=2)         # same command class as row 1
    pair.enqueue(bank=1, row=3)         # ready now, but third in rank
    pair.tick()
    assert len(pair.inc._failed_pass[2]) == 2
    pair.run_to(101)
    acts = pair.issued(CommandKind.ACT)
    assert [(now, c.bank) for now, c in acts] == [(100, 0)]


def _encode(request):
    return request.state_dict(None)


def _decode(state):
    return MemRequest.from_state_dict(
        state, MAPPER.decode(state["address"]), None
    )


def test_load_state_dict_drops_memos_and_state_dict_is_unchanged():
    pair = Pair(mechanism=TlDram)
    for row in (5, 6, 5):
        pair.enqueue(bank=0, row=row)
    pair.enqueue(bank=1, row=9, type=RequestType.WRITE)
    pair.run_to(TIMING.trcd + 5)
    inc, oracle = pair.inc, pair.oracle
    assert inc._failed_pass is not None
    assert any(r.row_memo is not None for r in inc.read_q)
    state = inc.state_dict(_encode)
    assert state == oracle.state_dict(_encode)

    inc.load_state_dict(state, _decode)
    oracle.load_state_dict(oracle.state_dict(_encode), _decode)
    assert inc._failed_pass is None
    assert all(r.row_memo is None for r in inc.read_q + inc.write_q)
    assert inc.state_dict(_encode) == state
    pair.run_to(1000)
    assert inc.pending_requests == 0
    assert inc.state_dict(_encode) == oracle.state_dict(_encode)
