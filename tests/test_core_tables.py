"""HiRA-MC storage structures: Refresh Table, RefPtr, PR-FIFO, SPT."""

import heapq

import pytest

from repro.chip.isolation import IsolationMap
from repro.core.engine import HiraRefreshEngine
from repro.core.hira_op import HiraOperation, access_after_refresh_latency_ps, refresh_pair_savings
from repro.core.pr_fifo import PreventiveRequest, PrFifo
from repro.core.refptr_table import RefPtrTable
from repro.core.spt import SubarrayPairsTable
from repro.dram.geometry import Geometry
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController


def hira_engine(**kwargs):
    """A HiRA engine attached to a one-channel controller, PARA off."""
    config = SystemConfig(refresh_mode="hira", tref_slack_acts=4)
    engine = HiraRefreshEngine(tref_slack_acts=4, **kwargs)
    mc = MemoryController(0, config, engine)
    engine.para = None
    return mc, engine


class TestRefreshTable:
    """The paper's Refresh Table (§5, component 3) as the engine keeps it:
    ``_gen_heap`` orders banks by their next periodic generation, and
    ``_bank_deadline`` holds each active bank's earliest deadline."""

    def test_gen_heap_holds_one_entry_per_bank(self):
        mc, engine = hira_engine()
        banks = {(rank, bank) for __, rank, bank in engine._gen_heap}
        assert banks == set(engine._periodic)
        assert len(engine._gen_heap) == len(engine._periodic)

    def test_gen_heap_pops_in_generation_order(self):
        mc, engine = hira_engine()
        heap = list(engine._gen_heap)
        popped = [heapq.heappop(heap) for __ in range(len(heap))]
        cycles = [cycle for cycle, __, __ in popped]
        assert cycles == sorted(cycles)
        assert cycles == sorted(int(s.next_gen) for s in engine._periodic.values())

    def test_generated_bank_reenters_one_period_later(self):
        mc, engine = hira_engine()
        first_cycle, rank, bank = engine._gen_heap[0]
        engine._advance_generation(first_cycle)
        period = engine._periodic[(rank, bank)].period
        assert (int(first_cycle + period), rank, bank) in engine._gen_heap

    def test_bank_deadline_is_periodic_head_plus_slack(self):
        mc, engine = hira_engine()
        engine._advance_generation(int(mc.config.per_bank_refresh_interval_cycles) // 4)
        assert engine._bank_deadline
        for key, deadline in engine._bank_deadline.items():
            assert deadline == engine._periodic[key].pending[0] + engine.slack_c

    def test_bank_deadline_agrees_with_queues(self):
        mc, engine = hira_engine()
        engine._advance_generation(int(mc.config.per_bank_refresh_interval_cycles) * 2)
        for key, deadline in engine._bank_deadline.items():
            assert deadline == engine._raw_deadline(key)

    def test_active_banks_are_exactly_those_with_deadlines(self):
        mc, engine = hira_engine()
        engine._advance_generation(int(mc.config.per_bank_refresh_interval_cycles) // 2)
        assert engine._active == set(engine._bank_deadline)
        assert 0 < len(engine._active) < len(engine._periodic)

    def test_sooner_preventive_request_sets_bank_deadline(self):
        mc, engine = hira_engine()
        engine._advance_generation(int(mc.config.per_bank_refresh_interval_cycles))
        key = min(engine._bank_deadline)
        periodic = engine._bank_deadline[key]
        engine.pr[key[0]].push(key[1], PreventiveRequest(row=7, deadline=periodic - 1))
        engine._refresh_active(*key)
        assert engine._bank_deadline[key] == periodic - 1

    def test_later_preventive_request_keeps_periodic_deadline(self):
        mc, engine = hira_engine()
        engine._advance_generation(int(mc.config.per_bank_refresh_interval_cycles))
        key = min(engine._bank_deadline)
        periodic = engine._bank_deadline[key]
        engine.pr[key[0]].push(key[1], PreventiveRequest(row=7, deadline=periodic + 1))
        engine._refresh_active(*key)
        assert engine._bank_deadline[key] == periodic

    def test_drained_bank_leaves_the_table(self):
        mc, engine = hira_engine()
        engine._advance_generation(int(mc.config.per_bank_refresh_interval_cycles))
        key = min(engine._bank_deadline)
        engine._periodic[key].pending.clear()
        engine._refresh_active(*key)
        assert key not in engine._bank_deadline
        assert key not in engine._active

    def test_generation_is_idempotent_within_a_cycle(self):
        mc, engine = hira_engine()
        now = int(mc.config.per_bank_refresh_interval_cycles)
        engine._advance_generation(now)
        generated = mc.stats.periodic_generated
        engine._advance_generation(now)
        assert mc.stats.periodic_generated == generated

    def test_credit_cancels_one_generated_request(self):
        mc, engine = hira_engine(stagger=False)
        engine._periodic[(0, 0)].credit = 1
        engine._advance_generation(0)
        assert engine._periodic[(0, 0)].credit == 0
        assert not engine._periodic[(0, 0)].pending
        assert mc.stats.periodic_generated == len(engine._periodic) - 1


class TestRefPtrTable:
    def test_advance_walks_subarray(self):
        geom = Geometry(subarrays_per_bank=4, rows_per_subarray=8)
        table = RefPtrTable(geom)
        rows = [table.advance(0, 2) for __ in range(10)]
        assert rows[0] == geom.row_of(2, 0)
        assert rows[7] == geom.row_of(2, 7)
        assert rows[8] == geom.row_of(2, 0)  # wraps

    def test_pointers_are_per_bank_and_subarray(self):
        geom = Geometry(subarrays_per_bank=4, rows_per_subarray=8)
        table = RefPtrTable(geom)
        table.advance(0, 1)
        assert table.advance(0, 3) == geom.row_of(3, 0)
        assert table.advance(1, 1) == geom.row_of(1, 0)
        assert table.advance(0, 1) == geom.row_of(1, 1)

    def test_one_sweep_refreshes_every_row_once(self):
        geom = Geometry(subarrays_per_bank=4, rows_per_subarray=8)
        table = RefPtrTable(geom)
        rows = [table.advance(2, 3) for __ in range(geom.rows_per_subarray)]
        assert sorted(rows) == [geom.row_of(3, i) for i in range(8)]


class TestPrFifo:
    def test_fifo_order(self):
        fifo = PrFifo(banks=2, depth=4)
        fifo.push(0, PreventiveRequest(row=5, deadline=10))
        fifo.push(0, PreventiveRequest(row=7, deadline=20))
        assert fifo.head(0).row == 5
        assert fifo.pop(0).row == 5
        assert fifo.head(0).row == 7

    def test_depth_limit(self):
        fifo = PrFifo(banks=1, depth=2)
        assert fifo.push(0, PreventiveRequest(1, 1))
        assert fifo.push(0, PreventiveRequest(2, 2))
        assert not fifo.push(0, PreventiveRequest(3, 3))

    def test_per_bank_independence(self):
        fifo = PrFifo(banks=2, depth=1)
        fifo.push(0, PreventiveRequest(1, 1))
        assert fifo.head(1) is None
        assert fifo.total_pending() == 1

    def test_pop_frees_a_slot(self):
        fifo = PrFifo(banks=1, depth=1)
        fifo.push(0, PreventiveRequest(1, 1))
        assert not fifo.push(0, PreventiveRequest(2, 2))
        fifo.pop(0)
        assert fifo.push(0, PreventiveRequest(2, 2))
        assert fifo.head(0).row == 2

    def test_total_pending_counts_every_bank(self):
        fifo = PrFifo(banks=3, depth=4)
        fifo.push(0, PreventiveRequest(1, 1))
        fifo.push(2, PreventiveRequest(2, 2))
        fifo.push(2, PreventiveRequest(3, 3))
        assert fifo.total_pending() == 3
        fifo.pop(2)
        assert fifo.total_pending() == 2

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            PrFifo(banks=1, depth=0)


class TestSubarrayPairsTable:
    @pytest.fixture(scope="class")
    def spt(self):
        return SubarrayPairsTable(Geometry(subarrays_per_bank=32, rows_per_subarray=64), coverage=0.32)

    def test_isolated_is_symmetric(self, spt):
        for a in range(32):
            for b in range(32):
                assert spt.isolated(a, b) == spt.isolated(b, a)

    def test_partner_is_isolated(self, spt):
        for sa in range(32):
            partner = spt.partner_subarray(0, sa)
            if partner is not None:
                assert spt.isolated(sa, partner)

    def test_partner_rotates(self, spt):
        partners = {spt.partner_subarray(1, 0) for __ in range(16)}
        assert len(partners) > 1

    def test_rotation_visits_every_partner(self, spt):
        iso = IsolationMap(subarrays=32, design_seed=0x5B7, target_coverage=0.32)
        expected = set(iso.partners(5))
        assert expected
        seen = {spt.partner_subarray(2, 5) for __ in range(len(expected))}
        assert seen == expected

    def test_rotation_pointer_is_per_bank(self):
        geom = Geometry(subarrays_per_bank=32, rows_per_subarray=64)
        shared, alone = SubarrayPairsTable(geom), SubarrayPairsTable(geom)
        interleaved = []
        for __ in range(4):
            interleaved.append(shared.partner_subarray(0, 10))
            shared.partner_subarray(1, 10)
        assert interleaved == [alone.partner_subarray(0, 10) for __ in range(4)]

    def test_subarray_of_row_follows_geometry(self, spt):
        for row in (0, 63, 64, 32 * 64 - 1):
            assert spt.subarray_of_row(row) == row // 64

    def test_average_coverage_near_target(self, spt):
        assert spt.average_coverage == pytest.approx(0.32, abs=0.08)


class TestHiraOperation:
    def test_command_counts(self):
        access = HiraOperation(bank=0, refresh_row=1, second_row=2, is_access=True)
        pair = HiraOperation(bank=0, refresh_row=1, second_row=2, is_access=False)
        assert access.command_count() == 3
        assert pair.command_count() == 4

    def test_pair_savings_51_4(self):
        assert refresh_pair_savings() == pytest.approx(0.514, abs=0.002)

    def test_access_latency_6ns(self):
        assert access_after_refresh_latency_ps() == 6_000
