"""HiRA-MC engine behaviour inside the controller."""

import pytest

from repro.core.engine import HiraRefreshEngine
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
from repro.sim.request import Request


def make_hira_mc(**engine_kwargs):
    config = SystemConfig(refresh_mode="hira", capacity_gbit=8.0)
    engine = HiraRefreshEngine(**engine_kwargs)
    mc = MemoryController(0, config, engine)
    engine.para = None
    return mc, engine


def req(row=0, bank=0):
    return Request(
        is_write=False, core_id=0, arrival_cycle=0,
        rank=0, bank=bank, row=row,
    )


class TestPeriodicGeneration:
    def test_generation_rate_matches_rows_per_window(self):
        mc, engine = make_hira_mc(tref_slack_acts=2)
        horizon = 200_000
        engine._advance_generation(horizon)
        generated = mc.stats.periodic_generated
        config = mc.config
        expected = (
            horizon / config.per_bank_refresh_interval_cycles
        ) * config.geometry.banks_per_rank
        assert generated == pytest.approx(expected, rel=0.02)

    def test_staggering_spreads_offsets(self):
        __, engine = make_hira_mc(stagger=True)
        offsets = sorted(s.next_gen for s in engine._periodic.values())
        assert len({int(o) for o in offsets}) == len(offsets)

    def test_no_stagger_aligns_offsets(self):
        __, engine = make_hira_mc(stagger=False)
        offsets = {s.next_gen for s in engine._periodic.values()}
        assert offsets == {0.0}


class TestRefreshAccessParallelization:
    def test_on_act_rides_pending_refresh(self):
        mc, engine = make_hira_mc(tref_slack_acts=8)
        horizon = int(mc.config.per_bank_refresh_interval_cycles) + 10
        engine._advance_generation(horizon)
        bank0_pending = engine._periodic[(0, 0)].pending
        assert bank0_pending
        row = engine.on_act(req(row=10, bank=0), horizon)
        assert row is not None
        # The chosen refresh row is in a subarray isolated from the demand row.
        sa_demand = engine.spt.subarray_of_row(10)
        sa_refresh = engine.spt.subarray_of_row(row)
        assert engine.spt.isolated(sa_demand, sa_refresh)

    def test_on_act_none_without_pending(self):
        mc, engine = make_hira_mc()
        # Bank 15's staggered first generation lies in the future at cycle 0.
        assert engine.on_act(req(row=10, bank=15), 0) is None

    def test_disable_access_parallelization(self):
        mc, engine = make_hira_mc(
            tref_slack_acts=8, disable_access_parallelization=True
        )
        engine._advance_generation(100_000)
        assert engine.on_act(req(row=10), 100_000) is None


class TestDeadlineEnforcement:
    def test_urgent_refreshes_by_deadline(self):
        mc, engine = make_hira_mc(tref_slack_acts=0)
        deadline_time = int(engine._periodic[(0, 0)].next_gen) + 1
        issued = False
        for cycle in range(deadline_time + mc.trc_c + 50):
            if mc.schedule(cycle):
                issued = True
        assert issued
        assert mc.stats.solo_refreshes + 2 * mc.stats.hira_refresh_parallelized >= 1

    def test_deadlines_met_in_idle_system(self):
        mc, engine = make_hira_mc(tref_slack_acts=2)
        cycle = 0
        limit = int(mc.config.per_bank_refresh_interval_cycles * 3)
        while cycle < limit:
            if not mc.schedule(cycle):
                cycle = max(cycle + 1, mc._progress_at)
            else:
                cycle += 1
        assert mc.stats.deadline_misses == 0
        performed = (
            mc.stats.solo_refreshes + 2 * mc.stats.hira_refresh_parallelized
        )
        assert performed >= mc.stats.periodic_generated - mc.config.geometry.banks_per_rank * 2

    def test_disable_refresh_parallelization_forces_solo(self):
        mc, engine = make_hira_mc(
            tref_slack_acts=0, disable_refresh_parallelization=True
        )
        limit = int(mc.config.per_bank_refresh_interval_cycles * 2)
        cycle = 0
        while cycle < limit:
            if not mc.schedule(cycle):
                cycle = max(cycle + 1, mc._progress_at)
            else:
                cycle += 1
        assert mc.stats.hira_refresh_parallelized == 0
        assert mc.stats.solo_refreshes > 0


class TestPreventivePath:
    def test_para_victims_enter_pr_fifo(self):
        mc, engine = make_hira_mc(tref_slack_acts=4)
        from repro.rowhammer.para import Para
        import numpy as np

        engine.para = Para(pth=1.0, rng=np.random.default_rng(1))
        engine.on_demand_act(req(row=100, bank=3), now=50)
        assert engine.pr[0].total_pending() == 1
        head = engine.pr[0].head(3)
        assert head.row in (99, 101)
        assert head.deadline == 50 + engine.slack_c

    def test_para_victim_sets_bank_deadline(self):
        mc, engine = make_hira_mc(tref_slack_acts=4)
        from repro.rowhammer.para import Para
        import numpy as np

        engine.para = Para(pth=1.0, rng=np.random.default_rng(1))
        # Bank 3 has no periodic request yet, so the victim's deadline is
        # the bank's Refresh Table entry.
        assert (0, 3) not in engine._bank_deadline
        engine.on_demand_act(req(row=100, bank=3), now=50)
        assert engine._bank_deadline[(0, 3)] == 50 + engine.slack_c
        assert (0, 3) in engine._active

    def test_pr_fifo_overflow_falls_back_to_blocking(self):
        mc, engine = make_hira_mc(tref_slack_acts=4, pr_fifo_depth=1)
        from repro.rowhammer.para import Para
        import numpy as np

        engine.para = Para(pth=1.0, rng=np.random.default_rng(1))
        engine.on_demand_act(req(row=100, bank=3), now=50)
        engine.on_demand_act(req(row=100, bank=3), now=51)
        assert len(engine._preventive) == 1  # overflow path
