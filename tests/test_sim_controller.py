"""Memory controller: DDR4 timing legality, FR-FCFS, refresh engines."""

import importlib

import pytest

from repro.sim.config import SystemConfig
from repro.sim.controller import (
    BaselineRefreshEngine,
    MemoryController,
    NoRefreshEngine,
)
from repro.sim.request import Request


def make_mc(mode="none", **overrides):
    config = SystemConfig(refresh_mode="baseline" if mode == "baseline" else "none", **overrides)
    engine = BaselineRefreshEngine() if mode == "baseline" else NoRefreshEngine()
    mc = MemoryController(0, config, engine)
    engine.para = None
    return mc


def req(row=0, bank=0, is_write=False, cycle=0, core=0):
    return Request(
        is_write=is_write,
        core_id=core,
        arrival_cycle=cycle,
        rank=0,
        bank=bank,
        row=row,
    )


def run_until(mc, limit):
    """Drive the controller cycle by cycle up to ``limit``."""
    trace = []
    for cycle in range(limit):
        before = (mc.stats.acts, mc.stats.pres, mc.stats.reads_served, mc.stats.refs)
        if mc.schedule(cycle):
            after = (mc.stats.acts, mc.stats.pres, mc.stats.reads_served, mc.stats.refs)
            trace.append((cycle, before, after))
    return trace


class TestTimingLegality:
    def test_read_waits_trcd_after_act(self):
        mc = make_mc()
        mc.enqueue(req(row=7))
        events = run_until(mc, 100)
        act_cycle = events[0][0]
        read_cycle = next(c for c, b, a in events if a[2] > b[2])
        assert read_cycle - act_cycle >= mc.trcd_c

    def test_act_act_same_bank_waits_trc(self):
        mc = make_mc()
        mc.enqueue(req(row=1))
        mc.enqueue(req(row=2))  # conflict: same bank, different row
        events = run_until(mc, 300)
        acts = [c for c, b, a in events if a[0] > b[0]]
        assert len(acts) == 2
        assert acts[1] - acts[0] >= mc.trc_c

    def test_pre_respects_tras(self):
        mc = make_mc()
        mc.enqueue(req(row=1))
        mc.enqueue(req(row=2))
        events = run_until(mc, 300)
        act0 = next(c for c, b, a in events if a[0] > b[0])
        pre0 = next(c for c, b, a in events if a[1] > b[1])
        assert pre0 - act0 >= mc.tras_c

    def test_faw_limits_burst_of_acts(self):
        mc = make_mc()
        for bank in range(8):
            mc.enqueue(req(row=1, bank=bank))
        events = run_until(mc, 200)
        acts = [c for c, b, a in events if a[0] > b[0]]
        for i in range(4, len(acts)):
            assert acts[i] - acts[i - 4] >= mc.tfaw_c

    def test_one_command_per_cycle(self):
        mc = make_mc()
        for bank in range(4):
            mc.enqueue(req(row=1, bank=bank))
        events = run_until(mc, 100)
        cycles = [c for c, __, __ in events]
        assert len(cycles) == len(set(cycles))


class TestFrFcfs:
    def test_row_hit_prioritized_over_older_miss(self):
        mc = make_mc()
        mc.enqueue(req(row=1, bank=0))
        run_until(mc, 40)  # opens row 1 and serves it
        # Now: older request to a different row vs younger row hit.
        mc.enqueue(req(row=9, bank=0, cycle=50))
        mc.enqueue(req(row=1, bank=0, cycle=51))
        events = run_until(mc, 400)
        reads = [c for c, b, a in events if a[2] > b[2]]
        # The row hit (row 1) is served before row 9's activation completes.
        assert mc.stats.reads_served == 3
        pres = [c for c, b, a in events if a[1] > b[1]]
        assert reads[0] < pres[0]

    def test_open_row_policy_keeps_row_open(self):
        mc = make_mc()
        mc.enqueue(req(row=3))
        run_until(mc, 60)
        assert mc._ta.open_row[0] == 3

    def test_write_drain_hysteresis(self):
        mc = make_mc()
        for i in range(50):
            mc.enqueue(req(row=i % 3, is_write=True))
        run_until(mc, 3_000)
        assert mc.stats.writes_served > 0

    def test_queue_capacity(self):
        mc = make_mc()
        accepted = sum(mc.enqueue(req(row=i)) for i in range(80))
        assert accepted == mc.config.read_queue_depth
        assert mc.stats.queue_full_rejections == 80 - accepted

    def test_fcfs_picks_oldest_head_across_banks(self):
        """Bank A gets seq 0 and 2, bank B seq 1.  Once FR serves seq 0,
        the head index still lists A first, yet B's older head (seq 1,
        an ACT) must win over A's head (seq 2, a PRE)."""
        mc = make_mc()
        mc.issue_act(0, 0, 5, 0)
        mc.enqueue(req(row=5, bank=0))  # seq 0: a row hit in bank A
        mc.enqueue(req(row=1, bank=1))  # seq 1: bank B, closed
        mc.enqueue(req(row=7, bank=0))  # seq 2: conflicts with A's open row
        assert mc.schedule(1_000)
        assert mc.stats.reads_served == 1
        assert list(mc._bank_q_read) == [0, 1]
        assert mc.schedule(1_100)  # both heads are issuable here
        assert (mc.stats.acts, mc.stats.pres) == (2, 0)
        assert mc._ta.open_row[:2] == [5, 1]


class TestBaselineRefresh:
    def test_ref_issued_every_trefi(self):
        mc = make_mc(mode="baseline")
        limit = mc.trefi_c * 3 + 100
        for cycle in range(0, limit, 1):
            mc.schedule(cycle)
        assert mc.stats.refs == 3

    def test_rank_blocked_during_trfc(self):
        mc = make_mc(mode="baseline")
        for cycle in range(mc.trefi_c + 10):
            mc.schedule(cycle)
        assert mc.stats.refs == 1
        mc.enqueue(req(row=5))
        start = mc.trefi_c + 10
        events = []
        for cycle in range(start, start + mc.trfc_c + 200):
            if mc.schedule(cycle):
                events.append(cycle)
        first_act = events[0]
        assert first_act >= mc.trefi_c + mc.trfc_c

    def test_ref_advances_same_bank_refresh_gate(self):
        # The REF/REFsb interlock: a rank-wide REF occupies the rank's
        # refresh control, so the same-bank refresh gate must move past
        # the tRFC busy window — not just every bank's next_act.
        mc = make_mc(mode="baseline")
        mc.issue_ref(0, 1_000)
        assert mc._ta.busy_until[0] == 1_000 + mc.trfc_c
        assert mc._ta.next_refsb[0] >= 1_000 + mc.trfc_c

    def test_ref_precharges_open_banks_first(self):
        mc = make_mc(mode="baseline")
        mc.enqueue(req(row=5))
        for cycle in range(60):
            mc.schedule(cycle)
        assert mc._ta.open_row[0] == 5
        for cycle in range(60, mc.trefi_c + mc.trp_c + 120):
            mc.schedule(cycle)
        assert mc.stats.refs == 1
        assert mc._ta.open_row[0] == -1  # precharged


class TestHiraPrimitives:
    def test_hira_act_delays_activation_by_gap(self):
        mc = make_mc()
        mc.issue_hira_act(0, 0, refresh_row=100, target_row=5, now=10)
        ta = mc._ta
        assert ta.open_row[0] == 5
        assert ta.next_rdwr[0] == 10 + mc.hira_gap_c + mc.trcd_c
        assert mc.stats.hira_access_parallelized == 1

    def test_hira_refresh_pair_busy_time(self):
        mc = make_mc()
        mc.issue_hira_refresh_pair(0, 0, now=0)
        next_act = mc._ta.next_act[0]
        expected_close = mc.hira_gap_c + mc.tras_c
        assert next_act == expected_close + mc.trp_c
        # 38 ns + tRP at paper defaults: strictly less than two solo passes.
        assert next_act < 2 * (mc.tras_c + mc.trp_c)

    def test_solo_refresh_busy_time(self):
        mc = make_mc()
        mc.issue_solo_refresh(0, 0, now=0)
        assert mc._ta.next_act[0] == mc.tras_c + mc.trp_c
        assert mc.stats.solo_refreshes == 1


#: Classes allocated per request, per ROB entry, per bank or per job on
#: the kernel hot path: a lost ``__slots__`` silently costs speed.
HOT_PATH_CLASSES = [
    ("repro.sim.request", "Request"),
    ("repro.sim.core", "RobEntry"),
    ("repro.sim.core", "CoreModel"),
    ("repro.sim.controller", "TimingArrays"),
    ("repro.sim.controller", "ControllerStats"),
    ("repro.sim.audit", "CommandRecord"),
    ("repro.core.engine", "_BankPeriodicState"),
    ("repro.orchestrator.backends.dispatch", "_Job"),
]


@pytest.mark.parametrize(
    "module,name", HOT_PATH_CLASSES, ids=[name for _, name in HOT_PATH_CLASSES]
)
def test_hot_path_classes_have_no_instance_dict(module, name):
    cls = getattr(importlib.import_module(module), name)
    # Every class in the MRO must declare slots, or instances get a __dict__.
    unslotted = [
        klass.__name__
        for klass in cls.__mro__
        if klass is not object and "__slots__" not in vars(klass)
    ]
    assert unslotted == []
