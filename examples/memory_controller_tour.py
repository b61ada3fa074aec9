#!/usr/bin/env python3
"""A tour of HiRA-MC's internal components (Fig. 7).

Builds the controller structures directly — the Refresh Table's deadlines
as the HiRA engine keeps them, RefPtr Table, PR-FIFO, Subarray Pairs
Table — and walks one refresh-access and one refresh-refresh
parallelization decision through the Concurrent Refresh Finder, printing
each step.  Ends with the §6 hardware-cost summary.

Run:  python examples/memory_controller_tour.py
"""

from repro.core.engine import HiraRefreshEngine
from repro.core.pr_fifo import PreventiveRequest, PrFifo
from repro.core.refptr_table import RefPtrTable
from repro.dram.geometry import Geometry
from repro.hwcost.report import (
    component_estimates,
    overall_area_mm2,
    worst_case_query_latency_ns,
)
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
from repro.sim.request import Request


def tour_tables() -> None:
    print("== Component tour ==")
    geom = Geometry()
    # The paper's Refresh Table (§5, component 3) is the engine's
    # generation heap (when each bank's next periodic request is due) and
    # its per-bank earliest deadline (periodic head + tRefSlack, or the
    # PR-FIFO head if sooner).
    config = SystemConfig(refresh_mode="hira", tref_slack_acts=4)
    engine = HiraRefreshEngine(tref_slack_acts=4)
    MemoryController(0, config, engine)
    engine._advance_generation(int(config.per_bank_refresh_interval_cycles) // 4)
    rank, bank = min(engine._bank_deadline)
    print(f"Refresh Table: {len(engine._bank_deadline)} banks hold a periodic "
          f"request; bank {bank} must refresh by cycle "
          f"{engine._bank_deadline[(rank, bank)]}; next generation due at "
          f"cycle {engine._gen_heap[0][0]} (rank {engine._gen_heap[0][1]}, "
          f"bank {engine._gen_heap[0][2]})")

    refptr = RefPtrTable(geom)
    first = refptr.advance(3, 10)
    second = refptr.advance(3, 10)
    print(f"RefPtr Table: subarray 10 of bank 3 refreshes rows {first}, "
          f"{second}, ... (pointer advances per refresh)")

    fifo = PrFifo(banks=geom.banks_per_rank, depth=4)
    fifo.push(3, PreventiveRequest(row=4242, deadline=900))
    print(f"PR-FIFO: bank 3 head -> victim row {fifo.head(3).row}, "
          f"deadline {fifo.head(3).deadline}")


def tour_decisions() -> None:
    print("\n== Concurrent Refresh Finder in action ==")
    config = SystemConfig(refresh_mode="hira", tref_slack_acts=8)
    engine = HiraRefreshEngine(tref_slack_acts=8)
    mc = MemoryController(0, config, engine)
    engine.para = None

    # Let one periodic refresh request accumulate for bank 0.
    horizon = int(config.per_bank_refresh_interval_cycles) + 5
    engine._advance_generation(horizon)
    print(f"PeriodicRC generated {mc.stats.periodic_generated} requests in "
          f"the first {horizon} cycles (one per bank, staggered)")

    # Case 1: a demand ACT arrives — ride the refresh on it.
    demand = Request(
        is_write=False, core_id=0, arrival_cycle=horizon,
        rank=0, bank=0, row=1234,
    )
    refresh_row = engine.on_act(demand, horizon)
    sa_demand = engine.spt.subarray_of_row(1234)
    sa_refresh = engine.spt.subarray_of_row(refresh_row)
    print(f"Case 1 (refresh-access): demand ACT to row 1234 (subarray "
          f"{sa_demand}) carries a refresh of row {refresh_row} (subarray "
          f"{sa_refresh}); isolated = "
          f"{engine.spt.isolated(sa_demand, sa_refresh)}")
    mc.issue_hira_act(0, 0, refresh_row, 1234, horizon)
    print(f"  -> HiRA ACT issued; demand activation effectively delayed by "
          f"t1+t2 = {mc.hira_gap_c} cycles instead of a full "
          f"tRC = {mc.trc_c} cycles for a separate refresh")

    # Case 2: no demand arrives; two queued refreshes pair at the deadline.
    engine2 = HiraRefreshEngine(tref_slack_acts=0)
    mc2 = MemoryController(0, config, engine2)
    engine2.para = None

    engine2._advance_generation(int(config.per_bank_refresh_interval_cycles) + 5)
    engine2.pr[0].push(0, PreventiveRequest(row=engine2.spt.geometry.row_of(40, 7), deadline=0))
    engine2._perform_due_refresh(0, 0, now=horizon)
    kind = ("refresh-refresh pair" if mc2.stats.hira_refresh_parallelized
            else "solo refresh")
    print(f"Case 2 (deadline): performed a {kind} "
          f"(pairs={mc2.stats.hira_refresh_parallelized}, "
          f"solos={mc2.stats.solo_refreshes})")


def tour_cost() -> None:
    print("\n== Hardware cost (Table 2) ==")
    for est in component_estimates():
        print(f"  {est.array.name:28s} {est.area_mm2:.5f} mm^2   "
              f"{est.access_latency_ns:.2f} ns")
    print(f"  Overall: {overall_area_mm2():.5f} mm^2 per rank; worst-case "
          f"query {worst_case_query_latency_ns():.2f} ns (< tRP = 14.5 ns)")


def main() -> None:
    tour_tables()
    tour_decisions()
    tour_cost()


if __name__ == "__main__":
    main()
