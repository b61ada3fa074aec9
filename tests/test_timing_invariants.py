"""Property-style audits: no engine may break DRAM timing invariants.

Each test builds a system with a :class:`CommandAuditor` on every channel,
drives it with randomized traces, and asserts the recorded command stream
holds tRC / tRRD_L / tRRD_S / tFAW / tRP / tRAS / tWR / tRFC and the
refresh-deadline rules.  This is the guard rail for the paper's
Case-1/Case-2 parallelization: HiRA may only violate tRC *inside* its own
engineered ACT-PRE-ACT sequence, never anywhere else.
"""

from __future__ import annotations

import pytest

from repro.sim.audit import CommandAuditor, attach_auditors
from repro.sim.config import SystemConfig
from repro.sim.controller import _ISSUED
from repro.sim.system import System
from repro.sim.trace import TraceProfile
from repro.workloads.mixes import mix_for


def random_mix(seed: int, cores: int = 8) -> list[TraceProfile]:
    """A randomized (but seeded) trace mix spanning intensity regimes."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return [
        TraceProfile(
            name=f"r{seed}-{i}",
            mpki=float(rng.uniform(2.0, 40.0)),
            row_locality=float(rng.uniform(0.3, 0.95)),
            read_fraction=float(rng.uniform(0.5, 0.9)),
            working_set_rows=int(rng.integers(256, 8192)),
        )
        for i in range(cores)
    ]


def run_audited(config: SystemConfig, mix, seed: int, instr: int = 12_000):
    system = System(config, mix, seed=seed, instr_budget=instr)
    auditors = attach_auditors(system)
    result = system.run(max_cycles=3_000_000)
    assert result.finished
    return result, auditors


def assert_clean(auditors) -> None:
    problems = [p for a in auditors for p in a.violations()]
    assert problems == [], "\n".join(problems[:10])


ENGINE_CONFIGS = [
    pytest.param(SystemConfig(refresh_mode="none"), id="none"),
    pytest.param(SystemConfig(refresh_mode="baseline"), id="baseline"),
    pytest.param(SystemConfig(refresh_mode="elastic"), id="elastic"),
    pytest.param(SystemConfig(refresh_mode="hira", tref_slack_acts=2), id="hira-2"),
    pytest.param(SystemConfig(refresh_mode="hira", tref_slack_acts=8), id="hira-8"),
    pytest.param(
        SystemConfig(refresh_mode="baseline", para_nrh=64.0), id="baseline-para64"
    ),
    pytest.param(SystemConfig(refresh_mode="hira", para_nrh=64.0), id="hira-para64"),
    pytest.param(SystemConfig(refresh_mode="none", para_nrh=128.0), id="none-para128"),
    # DDR5-style same-bank refresh (REFsb): every REF-owing engine must
    # hold the per-bank tRFC_sb/tREFSB_GAP rules on top of everything else.
    pytest.param(
        SystemConfig(refresh_mode="baseline", refresh_granularity="same_bank"),
        id="baseline-sb",
    ),
    pytest.param(
        SystemConfig(refresh_mode="elastic", refresh_granularity="same_bank"),
        id="elastic-sb",
    ),
    pytest.param(
        SystemConfig(
            refresh_mode="hira", refresh_granularity="same_bank", tref_slack_acts=2
        ),
        id="hira-sb-2",
    ),
    pytest.param(
        SystemConfig(
            refresh_mode="hira", refresh_granularity="same_bank", para_nrh=64.0
        ),
        id="hira-sb-para64",
    ),
]


class TestEnginesHoldInvariants:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    @pytest.mark.parametrize("trace_seed", [7, 23])
    def test_randomized_traces(self, config, trace_seed):
        __, auditors = run_audited(config, random_mix(trace_seed), seed=trace_seed)
        assert_clean(auditors)

    def test_spec_mix(self):
        config = SystemConfig(refresh_mode="hira", tref_slack_acts=4)
        __, auditors = run_audited(config, mix_for(2), seed=42)
        assert_clean(auditors)

    def test_multi_rank_multi_channel(self):
        config = SystemConfig(
            refresh_mode="hira", channels=2, ranks_per_channel=2, tref_slack_acts=4
        )
        __, auditors = run_audited(config, random_mix(5), seed=5)
        assert len(auditors) == 2
        assert_clean(auditors)

    def test_high_capacity_refresh_pressure(self):
        config = SystemConfig(refresh_mode="hira", capacity_gbit=128.0)
        __, auditors = run_audited(config, random_mix(9), seed=9)
        assert_clean(auditors)

    @pytest.mark.parametrize("mode", ["baseline", "elastic", "hira"])
    def test_write_heavy_traces_hold_twr(self, mode):
        # Low read fractions force write drains: every PRE after a write
        # burst must wait out tWR on the new auditor.
        mix = [
            TraceProfile(
                f"wr{i}", mpki=30.0, row_locality=0.4, read_fraction=0.25,
                working_set_rows=2048,
            )
            for i in range(8)
        ]
        config = SystemConfig(refresh_mode=mode)
        result, auditors = run_audited(config, mix, seed=31)
        assert result.stat_total("writes_served") > 0
        assert any(r.kind == "WR" for a in auditors for r in a.records)
        assert_clean(auditors)

    @pytest.mark.parametrize("mode", ["baseline", "elastic", "hira"])
    def test_same_bank_engines_issue_refsb(self, mode):
        config = SystemConfig(refresh_mode=mode, refresh_granularity="same_bank")
        result, auditors = run_audited(config, random_mix(19), seed=19)
        # REFsb replaces the rank-wide REF entirely in same-bank mode.
        assert result.stat_total("refs_sb") > 0
        assert result.stat_total("refs") == 0
        assert any(r.kind == "REFSB" for a in auditors for r in a.records)
        assert_clean(auditors)

    @pytest.mark.parametrize("mode", ["baseline", "elastic", "hira"])
    @pytest.mark.parametrize("trace_seed", [41, 43])
    def test_bankgroup_spacing_randomized(self, mode, trace_seed):
        # Same-group ACT pairs must be spaced by tRRD_L, cross-group by
        # tRRD_S — recomputed here independently of the oracle so a bug
        # in its rule table cannot hide one in the scheduler.
        config = SystemConfig(refresh_mode=mode)
        __, auditors = run_audited(config, random_mix(trace_seed), seed=trace_seed)
        assert_clean(auditors)
        for auditor in auditors:
            mc = auditor.mc
            groups = mc.banks_per_bankgroup
            acts = sorted(
                (r for r in auditor.records if r.kind == "ACT" and r.tag != "hira2"),
                key=lambda r: r.cycle,
            )
            by_rank: dict[int, object] = {}
            by_group: dict[tuple[int, int], object] = {}
            for rec in acts:
                prev = by_rank.get(rec.rank)
                if prev is not None:
                    assert rec.cycle - prev.cycle >= mc.trrd_s_c, (rec, prev)
                group_key = (rec.rank, rec.bank // groups)
                prev_group = by_group.get(group_key)
                if prev_group is not None:
                    assert rec.cycle - prev_group.cycle >= mc.trrd_l_c, (
                        rec, prev_group,
                    )
                by_rank[rec.rank] = rec
                by_group[group_key] = rec


class TestRefreshProgress:
    """The deadline side: engines must refresh, not just avoid violations."""

    def test_baseline_ref_survives_saturating_demand(self):
        # Round-robin row misses keep every bank busy; the REF drain must
        # still win (it defers demand per rank) or rows silently decay.
        mix = [
            TraceProfile(
                "miss", mpki=45.0, row_locality=0.05, read_fraction=0.9,
                working_set_rows=16384,
            )
        ] * 8
        for mode in ("baseline", "elastic"):
            config = SystemConfig(refresh_mode=mode)
            system = System(config, mix, seed=4, instr_budget=40_000)
            auditors = attach_auditors(system)
            result = system.run(max_cycles=6_000_000)
            trefi_c = system.controllers[0].trefi_c
            elapsed_trefis = result.cycles / trefi_c
            assert result.stat_total("refs") >= int(elapsed_trefis) - 1, mode
            assert_clean(auditors)

    def test_auditor_flags_missing_refs(self):
        config = SystemConfig(refresh_mode="baseline")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        # A long command stream with no REF at all (the starved case).
        span = 10 * mc.trefi_c
        auditor.on_act(0, 0, 0, 1)
        auditor.on_pre(mc.tras_c, 0, 0)
        auditor.on_act(span, 0, 0, 2)
        problems = auditor.violations()
        assert any("no REF" in p for p in problems)

    def test_baseline_ref_cadence(self):
        config = SystemConfig(refresh_mode="baseline")
        result, auditors = run_audited(config, random_mix(3), seed=3, instr=30_000)
        refs = result.stat_total("refs")
        expected = result.cycles / auditors[0].mc.trefi_c
        assert refs >= int(expected) - 1

    def test_hira_meets_deadlines_with_slack(self):
        config = SystemConfig(refresh_mode="hira", tref_slack_acts=4)
        result, auditors = run_audited(config, random_mix(11), seed=11, instr=30_000)
        assert result.stat_total("deadline_misses") == 0
        assert (
            result.stat_total("solo_refreshes")
            + result.stat_total("hira_access_parallelized")
            + result.stat_total("hira_refresh_parallelized")
            > 0
        )

    def test_same_bank_cadence_survives_saturating_demand(self):
        # Same-bank refresh must keep every bank's tREFI cadence even when
        # round-robin row misses keep all banks busy: the per-bank drain
        # (blocked_banks) defers demand to the one bank being refreshed.
        mix = [
            TraceProfile(
                "miss", mpki=45.0, row_locality=0.05, read_fraction=0.9,
                working_set_rows=16384,
            )
        ] * 8
        for mode, postpone_slack in (("baseline", 1), ("elastic", 9)):
            config = SystemConfig(
                refresh_mode=mode, refresh_granularity="same_bank"
            )
            system = System(config, mix, seed=4, instr_budget=40_000)
            auditors = attach_auditors(system)
            result = system.run(max_cycles=6_000_000)
            trefi_c = system.controllers[0].trefi_c
            banks = config.geometry.banks_per_rank
            # One REFsb per bank per tREFI; elastic may defer each bank's
            # REFsb by up to the 8-command postponement budget.
            expected = result.cycles / trefi_c * banks
            assert result.stat_total("refs_sb") >= int(expected) - postpone_slack * banks, mode
            assert_clean(auditors)

    def test_hira_same_bank_meets_deadlines_with_slack(self):
        config = SystemConfig(
            refresh_mode="hira", refresh_granularity="same_bank",
            tref_slack_acts=4,
        )
        result, auditors = run_audited(config, random_mix(11), seed=11, instr=30_000)
        assert result.stat_total("deadline_misses") == 0
        assert result.stat_total("refs_sb") > 0
        assert_clean(auditors)

    def test_hira_refreshes_at_generated_rate(self):
        config = SystemConfig(refresh_mode="hira", tref_slack_acts=4)
        system = System(config, random_mix(13), seed=13, instr_budget=30_000)
        result = system.run(max_cycles=3_000_000)
        engine = system.controllers[0].engine
        generated = result.stat_total("periodic_generated")
        performed = (
            result.stat_total("solo_refreshes")
            + result.stat_total("hira_access_parallelized")
            + 2 * result.stat_total("hira_refresh_parallelized")
        )
        # Everything generated is either performed or still pending within
        # its slack window.
        pending = engine.pending_periodic() + sum(
            fifo.total_pending() for fifo in engine.pr.values()
        )
        assert performed + pending >= generated


class TestAuditorMechanics:
    def test_detects_planted_trc_violation(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_act(1000, 0, 0, 7)
        auditor.on_act(1010, 0, 0, 9)  # same bank, far below tRC
        auditor.on_act(1012, 0, 1, 3)  # other bank, below tRRD
        problems = auditor.violations()
        assert any("tRC" in p for p in problems)
        assert any("tRRD" in p for p in problems)

    def test_detects_planted_trrd_l_violation(self):
        # Same-bank-group ACTs at tRRD_S spacing satisfy the short but not
        # the long parameter.
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, 1, 6)  # bank 1: same group
        problems = auditor.violations()
        assert any("tRRD_L" in p for p in problems)
        assert not any("tRRD_S" in p for p in problems)

    def test_cross_group_acts_at_trrd_s_are_legal(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        bank_cross = mc.config.geometry.banks_per_bankgroup  # first bank of group 1
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, bank_cross, 6)
        assert auditor.violations() == []

    def test_detects_planted_trcd_violation(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_col(1000 + mc.trcd_c - 1, 0, 0, is_write=False)
        assert any("tRCD" in p for p in auditor.violations())

    def test_col_at_trcd_boundary_is_legal(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_col(1000 + mc.trcd_c, 0, 0, is_write=False)
        assert auditor.violations() == []

    def test_detects_read_during_ref(self):
        config = SystemConfig(refresh_mode="baseline")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_ref(1000, 0)
        auditor.on_col(1005, 0, 0, is_write=False)
        assert any(
            "tRFC(REF->RD)@same-rank violation" in p for p in auditor.violations()
        )

    def test_detects_planted_twr_violation(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_act(1000, 0, 0, 5)
        wr = 1000 + mc.trcd_c
        auditor.on_col(wr, 0, 0, is_write=True)
        burst_end = wr + mc.tcwl_c + mc.tbl_c
        auditor.on_pre(burst_end + mc.twr_c - 1, 0, 0)  # one cycle early
        problems = auditor.violations()
        assert any("tWR" in p for p in problems)

    def test_pre_at_twr_boundary_is_legal(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_act(1000, 0, 0, 5)
        wr = 1000 + mc.trcd_c
        auditor.on_col(wr, 0, 0, is_write=True)
        burst_end = wr + mc.tcwl_c + mc.tbl_c
        auditor.on_pre(max(burst_end + mc.twr_c, 1000 + mc.tras_c), 0, 0)
        assert auditor.violations() == []

    def test_detects_planted_trtp_violation(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_act(1000, 0, 0, 5)
        rd = 1000 + mc.tras_c  # tRAS already satisfied at the PRE below
        auditor.on_col(rd, 0, 0, is_write=False)
        auditor.on_pre(rd + mc.trtp_c - 1, 0, 0)  # one cycle early
        problems = auditor.violations()
        assert any("tRTP" in p for p in problems)

    def test_pre_at_trtp_boundary_is_legal(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_act(1000, 0, 0, 5)
        rd = 1000 + mc.tras_c
        auditor.on_col(rd, 0, 0, is_write=False)
        auditor.on_pre(rd + mc.trtp_c, 0, 0)
        assert auditor.violations() == []

    def test_detects_planted_data_bus_conflict(self):
        # Two reads on different banks one cycle apart: their tBL-long
        # bursts (each starting tCL after the command) must overlap.
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        bank_cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, bank_cross, 6)
        rd = 1000 + mc.trcd_c
        auditor.on_col(rd, 0, 0, is_write=False)
        auditor.on_col(rd + 1, 0, bank_cross, is_write=False)
        problems = auditor.violations()
        assert any("tBL(RD->RD)@same-channel-bus violation" in p for p in problems)

    def test_detects_read_write_data_bus_conflict(self):
        # tCL > tCWL: a WR issued right after a RD bursts *earlier*, so the
        # ordering-aware check must still catch the overlap.
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        bank_cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, bank_cross, 6)
        rd = 1000 + mc.trcd_c
        auditor.on_col(rd, 0, 0, is_write=False)
        # tCL - tCWL cycles later the WR burst would abut the RD burst; a
        # couple of cycles after that it lands mid-burst.
        wr = rd + (mc.tcl_c - mc.tcwl_c) + mc.tbl_c - 2
        auditor.on_col(wr, 0, bank_cross, is_write=True)
        problems = auditor.violations()
        assert any(
            "tBL+tRTW(RD->WR)@data-bus-direction violation" in p for p in problems
        )

    def test_back_to_back_bursts_are_legal(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        bank_cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, bank_cross, 6)
        rd = 1000 + mc.trcd_c
        auditor.on_col(rd, 0, 0, is_write=False)
        auditor.on_col(rd + mc.tbl_c, 0, bank_cross, is_write=False)
        assert auditor.violations() == []

    def test_detects_planted_tfaw_violation(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        for i in range(5):  # five ACTs, tRRD-spaced, inside one tFAW window
            auditor.on_act(1000 + i * mc.trrd_s_c, 0, i, 3)
        problems = auditor.violations()
        assert any("tFAW" in p for p in problems)

    def test_detects_ref_during_restore(self):
        config = SystemConfig(refresh_mode="baseline")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        auditor = CommandAuditor(mc)
        auditor.on_solo_refresh(1000, 0, 2, close=1000 + mc.tras_c)
        auditor.on_ref(1005, 0)  # bank 2 is still restoring
        problems = auditor.violations()
        assert any("open banks" in p for p in problems)

    def _bus_auditor(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        return mc, CommandAuditor(mc)

    def test_detects_planted_trtw_violation(self):
        # A WR burst starting one cycle inside the read→write turnaround
        # window: no raw overlap, but the bus had no time to change
        # direction.
        mc, auditor = self._bus_auditor()
        bank_cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, bank_cross, 6)
        rd = 1000 + mc.trcd_c
        auditor.on_col(rd, 0, 0, is_write=False)
        rd_end = rd + mc.tcl_c + mc.tbl_c
        wr = rd_end + mc.trtw_c - 1 - mc.tcwl_c
        auditor.on_col(wr, 0, bank_cross, is_write=True)
        problems = auditor.violations()
        assert any("tRTW" in p for p in problems)
        assert not any("data-bus conflict" in p for p in problems)

    def test_wr_burst_at_trtw_boundary_is_legal(self):
        mc, auditor = self._bus_auditor()
        bank_cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, bank_cross, 6)
        rd = 1000 + mc.trcd_c
        auditor.on_col(rd, 0, 0, is_write=False)
        rd_end = rd + mc.tcl_c + mc.tbl_c
        auditor.on_col(rd_end + mc.trtw_c - mc.tcwl_c, 0, bank_cross,
                       is_write=True)
        assert auditor.violations() == []

    def test_detects_planted_twtr_violation(self):
        mc, auditor = self._bus_auditor()
        bank_cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, bank_cross, 6)
        wr = 1000 + mc.trcd_c
        auditor.on_col(wr, 0, 0, is_write=True)
        wr_end = wr + mc.tcwl_c + mc.tbl_c
        rd = wr_end + mc.twtr_c - 1 - mc.tcl_c
        auditor.on_col(rd, 0, bank_cross, is_write=False)
        problems = auditor.violations()
        assert any("tWTR" in p for p in problems)
        assert not any("data-bus conflict" in p for p in problems)

    def test_rd_burst_at_twtr_boundary_is_legal(self):
        mc, auditor = self._bus_auditor()
        bank_cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, bank_cross, 6)
        wr = 1000 + mc.trcd_c
        auditor.on_col(wr, 0, 0, is_write=True)
        wr_end = wr + mc.tcwl_c + mc.tbl_c
        auditor.on_col(wr_end + mc.twtr_c - mc.tcl_c, 0, bank_cross,
                       is_write=False)
        assert auditor.violations() == []

    def test_same_direction_bursts_need_no_turnaround(self):
        # Back-to-back same-direction bursts abut exactly: the turnaround
        # gap applies only across a direction change.
        mc, auditor = self._bus_auditor()
        bank_cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, bank_cross, 6)
        rd = 1000 + mc.trcd_c
        auditor.on_col(rd, 0, 0, is_write=False)
        auditor.on_col(rd + mc.tbl_c, 0, bank_cross, is_write=False)
        assert auditor.violations() == []

    def test_attaching_auditor_does_not_change_results(self):
        config = SystemConfig(refresh_mode="hira", para_nrh=256.0)
        mix = random_mix(17)
        bare = System(config, mix, seed=17, instr_budget=10_000).run()
        audited_system = System(config, mix, seed=17, instr_budget=10_000)
        attach_auditors(audited_system)
        audited = audited_system.run()
        assert bare.cycles == audited.cycles
        assert bare.ipcs == audited.ipcs


class TestRefsbAuditorMechanics:
    """Planted violations and boundaries for DDR5 same-bank refresh."""

    def _auditor(self, granularity="all_bank", mode="none"):
        config = SystemConfig(refresh_mode=mode, refresh_granularity=granularity)
        system = System(config, random_mix(1), seed=1, instr_budget=2_000)
        mc = system.controllers[0]
        return mc, CommandAuditor(mc)

    def test_detects_refsb_to_open_bank(self):
        mc, auditor = self._auditor()
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_refsb(1010, 0, 0)
        assert any(
            "REFSB @1010 to open bank (0, 0)" in p for p in auditor.violations()
        )

    def test_detects_refsb_inside_trp(self):
        mc, auditor = self._auditor()
        auditor.on_act(1000, 0, 0, 5)
        pre = 1000 + mc.tras_c
        auditor.on_pre(pre, 0, 0)
        auditor.on_refsb(pre + mc.trp_c - 1, 0, 0)  # one cycle early
        assert any(
            "tRP(PRE->REFSB)@same-bank violation" in p for p in auditor.violations()
        )

    def test_refsb_at_trp_boundary_is_legal(self):
        mc, auditor = self._auditor()
        auditor.on_act(1000, 0, 0, 5)
        pre = 1000 + mc.tras_c
        auditor.on_pre(pre, 0, 0)
        auditor.on_refsb(pre + mc.trp_c, 0, 0)
        assert auditor.violations() == []

    def test_detects_act_during_refsb(self):
        mc, auditor = self._auditor()
        auditor.on_refsb(1000, 0, 0)
        auditor.on_act(1000 + mc.trfc_sb_c - 1, 0, 0, 5)  # one early
        assert any(
            "tRFC_sb(REFSB->ACT)@same-bank violation" in p
            for p in auditor.violations()
        )

    def test_act_at_trfc_sb_boundary_is_legal(self):
        mc, auditor = self._auditor()
        auditor.on_refsb(1000, 0, 0)
        auditor.on_act(1000 + mc.trfc_sb_c, 0, 0, 5)
        assert auditor.violations() == []

    def test_sibling_bank_act_during_refsb_is_legal(self):
        # The whole point of REFsb: only the refreshed bank is busy.
        mc, auditor = self._auditor()
        auditor.on_refsb(1000, 0, 0)
        auditor.on_act(1005, 0, 4, 5)  # other bank group, other bank
        assert auditor.violations() == []

    def test_detects_trefsb_gap_violation(self):
        mc, auditor = self._auditor()
        auditor.on_refsb(1000, 0, 0)
        auditor.on_refsb(1000 + mc.trefsb_gap_c - 1, 0, 1)  # one early
        assert any("tREFSB_GAP" in p for p in auditor.violations())

    def test_refsb_at_trefsb_gap_boundary_is_legal(self):
        mc, auditor = self._auditor()
        auditor.on_refsb(1000, 0, 0)
        auditor.on_refsb(1000 + mc.trefsb_gap_c, 0, 1)
        assert auditor.violations() == []

    def test_detects_refsb_during_ref(self):
        # The interlock's other direction: a same-bank refresh inside a
        # rank-wide tRFC busy window.
        mc, auditor = self._auditor(mode="baseline")
        auditor.on_ref(1000, 0)
        auditor.on_refsb(1000 + mc.trfc_c - 1, 0, 0)  # one cycle early
        assert any(
            "tRFC(REF->REFSB)@same-rank violation" in p for p in auditor.violations()
        )

    def test_refsb_at_trfc_boundary_is_legal(self):
        mc, auditor = self._auditor()
        auditor.on_ref(1000, 0)
        auditor.on_refsb(1000 + mc.trfc_c, 0, 0)
        assert auditor.violations() == []

    def test_detects_ref_during_refsb(self):
        mc, auditor = self._auditor(mode="baseline")
        auditor.on_refsb(1000, 0, 2)
        auditor.on_ref(1005, 0)
        assert any(
            "tRFC_sb(REFSB->REF)@same-rank violation" in p
            for p in auditor.violations()
        )

    def test_detects_per_bank_cadence_gap(self):
        mc, auditor = self._auditor()
        auditor.on_refsb(0, 0, 3)
        auditor.on_refsb(10 * mc.trefi_c, 0, 3)
        assert any(
            "tREFI-cadence(REFSB)@same-bank violation" in p
            for p in auditor.violations()
        )

    def test_detects_starved_bank_in_same_bank_mode(self):
        # A long same-bank-mode stream with no REFsb at all: every bank of
        # the rank must be flagged from the stream bounds.
        mc, auditor = self._auditor(granularity="same_bank", mode="baseline")
        span = 10 * mc.trefi_c
        auditor.on_act(0, 0, 0, 1)
        auditor.on_pre(mc.tras_c, 0, 0)
        auditor.on_act(span, 0, 0, 2)
        problems = auditor.violations()
        starved = [p for p in problems if "no REFSB issued" in p]
        assert len(starved) == mc.banks_per_rank


class TestPairingPolicy:
    """The ACT-bandwidth-aware Concurrent Refresh Finder (Fig. 8 Case 2)."""

    def _saturated_system(self):
        from repro.sim.request import Request

        config = SystemConfig(refresh_mode="hira", tref_slack_acts=2)
        mix = [
            TraceProfile("idle", mpki=1.0, row_locality=0.5, read_fraction=1.0)
        ] * 8
        system = System(config, mix, seed=1, instr_budget=1_000)
        mc = system.controllers[0]
        engine = mc.engine
        now = 10_000
        # Only our synthetic request exists: silence periodic generation.
        engine._gen_heap.clear()
        state = engine._periodic[(0, 0)]
        state.pending.append(now - engine.slack_c)  # deadline == now: due
        engine._active.add((0, 0))
        demand = Request(
            is_write=False, core_id=0, arrival_cycle=now,
            rank=0, bank=0, row=5,
        )
        return system, mc, engine, state, demand, now

    def _saturate_rank(self, mc, now):
        # Two recent ACTs to other bank groups: pressure hits 0.5 (the
        # highest level at which a two-ACT pair is still tFAW-legal)
        # without gating bank 0 on tRRD_L.
        spread = mc.banks_per_bankgroup
        mc._record_act(0, spread, now - mc.tfaw_c + 2)
        mc._record_act(0, 2 * spread, now - mc.tfaw_c + 2 + mc.trrd_s_c)

    def test_saturated_rank_with_waiting_demand_pairs(self):
        __, mc, engine, state, demand, now = self._saturated_system()
        self._saturate_rank(mc, now)
        mc.enqueue(demand)
        assert mc.act_pressure(0, now) >= engine.pressure_threshold
        assert engine.urgent(now) == _ISSUED
        assert mc.stats.hira_refresh_parallelized == 1
        assert mc.stats.solo_refreshes == 0
        assert state.credit == 1  # the partner came from the future stream

    def test_idle_rank_does_not_pull_forward(self):
        __, mc, engine, state, demand, now = self._saturated_system()
        mc.enqueue(demand)  # demand alone is not enough
        assert mc.act_pressure(0, now) < engine.pressure_threshold
        assert engine.urgent(now) == _ISSUED
        assert mc.stats.hira_refresh_parallelized == 0
        assert mc.stats.solo_refreshes == 1
        assert state.credit == 0

    def test_saturated_rank_without_demand_stays_solo(self):
        __, mc, engine, state, __demand, now = self._saturated_system()
        self._saturate_rank(mc, now)
        assert engine.urgent(now) == _ISSUED
        assert mc.stats.hira_refresh_parallelized == 0
        assert mc.stats.solo_refreshes == 1
        assert state.credit == 0

    def test_pulled_forward_credit_cancels_next_generation(self):
        __, mc, engine, state, demand, now = self._saturated_system()
        self._saturate_rank(mc, now)
        mc.enqueue(demand)
        assert engine.urgent(now) == _ISSUED
        assert state.credit == 1
        generated_before = mc.stats.periodic_generated
        import heapq

        state.next_gen = now + 1
        heapq.heappush(engine._gen_heap, (now + 1, 0, 0))
        engine._advance_generation(now + 1)
        # The credited generation is consumed, not queued.
        assert state.credit == 0
        assert not state.pending
        assert mc.stats.periodic_generated == generated_before

    def test_spilled_preventive_keeps_original_deadline(self):
        from repro.core.pr_fifo import PreventiveRequest

        __, mc, engine, state, __demand, now = self._saturated_system()
        state.pending.clear()
        far = now + 10_000
        for i in range(engine.pr_fifo_depth):  # fill bank 0's PR-FIFO
            assert engine.pr[0].push(0, PreventiveRequest(row=100 + i, deadline=far))
        spill_deadline = far - 1
        engine._requeue_row(0, 0, 999, spill_deadline)
        assert list(engine._preventive) == [(0, 0, 999, spill_deadline)]
        # Free a slot: the next urgent() re-admits the spilled request
        # with its original deadline, not a fresh now + slack stamp.
        engine.pr[0].pop(0)
        engine.urgent(now)
        assert not engine._preventive
        for __ in range(engine.pr_fifo_depth - 1):
            engine.pr[0].pop(0)
        readmitted = engine.pr[0].head(0)
        assert readmitted.row == 999
        assert readmitted.deadline == spill_deadline

    def test_spill_readmission_skips_blocked_banks(self):
        from repro.core.pr_fifo import PreventiveRequest

        __, mc, engine, state, __demand, now = self._saturated_system()
        state.pending.clear()
        far = now + 10_000
        for i in range(engine.pr_fifo_depth):  # bank 0's FIFO stays full
            assert engine.pr[0].push(0, PreventiveRequest(row=100 + i, deadline=far))
        engine._queue_preventive(0, 0, 999, far - 2)  # blocked bank first
        engine._queue_preventive(0, 1, 888, far - 1)  # free bank behind it
        assert engine.urgent(now) == _ISSUED
        # Bank 1's spill was re-admitted (original deadline intact) even
        # though bank 0's sat ahead of it; bank 0's was serviced
        # opportunistically by the overflow path.
        readmitted = engine.pr[0].head(1)
        assert readmitted.row == 888
        assert readmitted.deadline == far - 1
        assert not engine._preventive
        assert mc.stats.solo_refreshes == 1

    def test_demand_act_under_pressure_defers_periodic_riding(self):
        __, mc, engine, state, demand, now = self._saturated_system()
        # Give the periodic request ample slack so riding is optional.
        state.pending.clear()
        state.pending.append(now + 10 * mc.trc_c)
        self._saturate_rank(mc, now)
        assert engine.on_act(demand, now) is None  # slot saved for a pair
        assert state.pending  # request still queued
        # The same request rides a demand ACT once the rank's tFAW window
        # has drained.
        assert engine.on_act(demand, now + mc.tfaw_c) is not None
