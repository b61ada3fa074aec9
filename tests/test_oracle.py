"""The second-opinion oracle: planted violations per rule, agreement, FP-freedom.

Every planted test drives the *auditor's* hooks to build the command
stream, then feeds ``auditor.records`` to the oracle and asserts the
rule it flags.  The auditor holds no rules of its own; where a test also
checks ``auditor.violations()`` it pins that those are exactly the
oracle's messages for the same records.
"""

from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.audit import (
    CommandAuditor,
    CommandRecord,
    attach_auditors,
    records_from_log,
)
from repro.sim.config import SystemConfig
from repro.sim.oracle import (
    AHEAD_TAGS,
    RuleTable,
    TimingOracle,
    build_rule_table,
    build_rule_table_cycles,
    oracle_for_config,
    table_for_log,
)
from repro.sim.system import System
from repro.sim.trace import TraceProfile


def _setup(mode="none", granularity="all_bank"):
    config = SystemConfig(
        refresh_mode=mode, refresh_granularity=granularity, cores=1
    )
    mix = [
        TraceProfile("t", mpki=10.0, row_locality=0.5, read_fraction=0.6,
                     working_set_rows=1024)
    ]
    system = System(config, mix, seed=1, instr_budget=1_000)
    mc = system.controllers[0]
    return mc, CommandAuditor(mc), oracle_for_config(config)


def _rules(oracle, auditor):
    """The distinct rule names the oracle flags for the auditor's stream."""
    return {v.rule.split("(")[0] for v in oracle.check(auditor.records)}


class TestRuleTableGeneration:
    def test_generated_solely_from_timing_params(self):
        # Independence is structural: the oracle module must not import
        # anything from the simulator package (controller, audit, config).
        import inspect

        import repro.sim.oracle as oracle_mod

        source = inspect.getsource(oracle_mod)
        for line in source.splitlines():
            stripped = line.strip()
            if stripped.startswith(("import ", "from ")):
                assert "repro" not in stripped, stripped

    def test_table_covers_every_accreted_rule(self):
        mc, __, oracle = _setup()
        table = oracle.table
        names = {
            r.name for r in (
                *table.pair_rules, *table.bus_rules,
                *table.window_rules, *table.cadence_rules,
            )
        }
        assert {
            "tRC", "tRAS", "tRP", "tRCD", "tRTP", "tWR", "tRRD_S", "tRRD_L",
            "tRFC", "tRFC_sb", "tREFSB_GAP", "tBL", "tBL+tRTW", "tBL+tWTR",
            "tFAW", "tREFI-cadence",
        } <= names

    def test_json_round_trip_is_lossless(self):
        __, __, oracle = _setup(mode="baseline", granularity="same_bank")
        payload = oracle.table.to_json()
        rebuilt = RuleTable.from_json(json.loads(json.dumps(payload)))
        assert rebuilt.to_json() == payload
        assert rebuilt == oracle.table

    def test_cycle_domain_matches_controller_conversion(self):
        mc, auditor, oracle = _setup()
        table = oracle.table
        by_id = {r.rule_id: r for r in table.pair_rules}
        assert by_id["tRC(ACT->ACT)@same-bank"].min_delay == mc.trc_c
        assert by_id["tRCD(ACT->RD)@same-bank"].min_delay == mc.trcd_c
        assert table.window_rules[0].window == mc.tfaw_c
        assert table.hira_gap == mc.hira_gap_c


class TestPlantedPairViolations:
    """One mutated log per rule-table entry; the oracle flags exactly it."""

    def test_trc(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_pre(1000 + mc.tras_c, 0, 0)
        auditor.on_act(1000 + mc.trc_c - 1, 0, 0, 6)
        # tRC - tRAS - 1 < tRP: the early re-ACT necessarily trips tRP too.
        assert "tRC" in _rules(oracle, auditor)
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_trp_only(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        pre = 1000 + mc.tras_c
        auditor.on_pre(pre, 0, 0)
        act2 = pre + mc.trp_c - 1
        if act2 - 1000 < mc.trc_c:  # ceiling rounding can make trc > tras+trp-1
            act2 = 1000 + mc.trc_c
        auditor.on_act(act2, 0, 0, 6)
        assert _rules(oracle, auditor) == {"tRP"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_tras_only(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_pre(1000 + mc.tras_c - 1, 0, 0)
        assert _rules(oracle, auditor) == {"tRAS"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    @pytest.mark.parametrize("is_write", [False, True])
    def test_trcd_only(self, is_write):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_col(1000 + mc.trcd_c - 1, 0, 0, is_write=is_write)
        assert _rules(oracle, auditor) == {"tRCD"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_trtp_only(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        rd = 1000 + mc.tras_c  # tRAS satisfied at the PRE below
        auditor.on_col(rd, 0, 0, is_write=False)
        auditor.on_pre(rd + mc.trtp_c - 1, 0, 0)
        assert _rules(oracle, auditor) == {"tRTP"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_twr_only(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        wr = 1000 + mc.trcd_c
        auditor.on_col(wr, 0, 0, is_write=True)
        pre = wr + mc.tcwl_c + mc.tbl_c + mc.twr_c - 1
        assert pre - 1000 >= mc.tras_c
        auditor.on_pre(pre, 0, 0)
        assert _rules(oracle, auditor) == {"tWR"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_trrd_s_only(self):
        mc, auditor, oracle = _setup()
        cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c - 1, 0, cross, 6)
        assert _rules(oracle, auditor) == {"tRRD_S"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_trrd_l_only(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, 1, 6)  # same group
        assert _rules(oracle, auditor) == {"tRRD_L"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_tfaw_only(self):
        mc, auditor, oracle = _setup()
        cross = mc.config.geometry.banks_per_bankgroup
        # Four cross-group ACTs then a fifth to a fresh group-0 bank: all
        # tRRD-legal, window span below tFAW.
        banks = [0, cross, 2 * cross, 3 * cross, 1]
        for i, bank in enumerate(banks):
            auditor.on_act(1000 + i * mc.trrd_s_c, 0, bank, 3)
        assert 4 * mc.trrd_s_c < mc.tfaw_c
        assert _rules(oracle, auditor) == {"tFAW"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_ref_busy_window(self):
        mc, auditor, oracle = _setup()
        auditor.on_ref(1000, 0)
        auditor.on_act(1000 + mc.trfc_c - 1, 0, 0, 5)
        assert _rules(oracle, auditor) == {"tRFC"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_refsb_busy_window(self):
        mc, auditor, oracle = _setup()
        auditor.on_refsb(1000, 0, 0)
        auditor.on_act(1000 + mc.trfc_sb_c - 1, 0, 0, 5)
        assert _rules(oracle, auditor) == {"tRFC_sb"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_ref_to_refsb_interlock(self):
        # The satellite bug: a same-bank refresh inside a rank-wide tRFC
        # busy window.
        mc, auditor, oracle = _setup()
        auditor.on_ref(1000, 0)
        auditor.on_refsb(1000 + mc.trfc_c - 1, 0, 0)
        assert _rules(oracle, auditor) == {"tRFC"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_refsb_to_ref_interlock(self):
        mc, auditor, oracle = _setup()
        auditor.on_refsb(1000, 0, 0)
        auditor.on_ref(1000 + mc.trfc_sb_c - 1, 0)
        assert _rules(oracle, auditor) == {"tRFC_sb"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_trefsb_gap_only(self):
        mc, auditor, oracle = _setup()
        auditor.on_refsb(1000, 0, 0)
        auditor.on_refsb(1000 + mc.trefsb_gap_c - 1, 0, 1)  # sibling bank
        assert _rules(oracle, auditor) == {"tREFSB_GAP"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_trp_before_ref(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        pre = 1000 + mc.tras_c
        auditor.on_pre(pre, 0, 0)
        auditor.on_ref(pre + mc.trp_c - 1, 0)
        assert _rules(oracle, auditor) == {"tRP"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_trp_before_refsb(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        pre = 1000 + mc.tras_c
        auditor.on_pre(pre, 0, 0)
        auditor.on_refsb(pre + mc.trp_c - 1, 0, 0)
        assert _rules(oracle, auditor) == {"tRP"}
        assert auditor.violations() == oracle.check_messages(auditor.records)


class TestPlantedBusViolations:
    def _two_open_banks(self, mc, auditor):
        cross = mc.config.geometry.banks_per_bankgroup
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c, 0, cross, 6)
        return cross

    def test_tbl_overlap_only(self):
        mc, auditor, oracle = _setup()
        cross = self._two_open_banks(mc, auditor)
        rd = 1000 + mc.tras_c  # both banks long past tRCD
        auditor.on_col(rd, 0, 0, is_write=False)
        auditor.on_col(rd + mc.tbl_c - 1, 0, cross, is_write=False)
        assert _rules(oracle, auditor) == {"tBL"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_trtw_only(self):
        mc, auditor, oracle = _setup()
        cross = self._two_open_banks(mc, auditor)
        rd = 1000 + mc.tras_c
        auditor.on_col(rd, 0, 0, is_write=False)
        # WR burst starting one cycle inside the read→write turnaround.
        wr = rd + mc.tcl_c + mc.tbl_c + mc.trtw_c - 1 - mc.tcwl_c
        auditor.on_col(wr, 0, cross, is_write=True)
        assert _rules(oracle, auditor) == {"tBL+tRTW"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_twtr_only(self):
        mc, auditor, oracle = _setup()
        cross = self._two_open_banks(mc, auditor)
        wr = 1000 + mc.tras_c
        auditor.on_col(wr, 0, 0, is_write=True)
        rd = wr + mc.tcwl_c + mc.tbl_c + mc.twtr_c - 1 - mc.tcl_c
        auditor.on_col(rd, 0, cross, is_write=False)
        assert _rules(oracle, auditor) == {"tBL+tWTR"}
        assert auditor.violations() == oracle.check_messages(auditor.records)


class TestPlantedCadenceViolations:
    def test_ref_cadence_gap(self):
        mc, auditor, oracle = _setup(mode="baseline")
        auditor.on_ref(0, 0)
        auditor.on_ref(10 * mc.trefi_c, 0)
        assert _rules(oracle, auditor) == {"tREFI-cadence"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_refsb_per_bank_cadence_gap(self):
        mc, auditor, oracle = _setup(mode="baseline", granularity="same_bank")
        auditor.on_refsb(0, 0, 3)
        auditor.on_refsb(10 * mc.trefi_c, 0, 3)
        # Endpoint starvation also fires for every *other* bank of the
        # rank, so assert membership, not exactness.
        violations = oracle.check(auditor.records)
        gap_hits = [
            v for v in violations
            if v.rule.startswith("tREFI-cadence(REFSB)")
            and "since the previous" in v.message
        ]
        assert len(gap_hits) == 1
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_starved_rank_flagged_from_endpoints(self):
        mc, auditor, oracle = _setup(mode="baseline")
        span = 10 * mc.trefi_c
        auditor.on_act(0, 0, 0, 1)
        auditor.on_pre(mc.tras_c, 0, 0)
        auditor.on_act(span, 0, 0, 2)
        assert "tREFI-cadence" in _rules(oracle, auditor)
        assert auditor.violations() == oracle.check_messages(auditor.records)


class TestOracleOnlyStateRules:
    """The oracle's state rules: open/closed banks and the exact HiRA gap."""

    def test_act_to_open_bank(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trc_c, 0, 0, 6)  # tRC-legal, never closed
        assert _rules(oracle, auditor) == {"open-bank"}

    def test_column_to_closed_bank(self):
        __, auditor, oracle = _setup()
        auditor.on_col(1000, 0, 0, is_write=False)
        assert _rules(oracle, auditor) == {"closed-bank"}

    def test_ref_with_open_bank(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_ref(1000 + mc.tras_c + mc.trp_c, 0)
        assert _rules(oracle, auditor) == {"ref-open-bank"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_refsb_to_open_bank(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_refsb(1000 + mc.tras_c + mc.trp_c, 0, 0)
        assert _rules(oracle, auditor) == {"refsb-open-bank"}
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_hira_gap_must_be_exact(self):
        mc, auditor, oracle = _setup(mode="hira")
        eff = 1000 + mc.hira_gap_c + 1  # one cycle late
        auditor.on_hira_op(1000, 0, 0, 7, 9, eff, close=eff + mc.tras_c)
        assert "hira-gap" in _rules(oracle, auditor)
        assert auditor.violations() == oracle.check_messages(auditor.records)

    def test_nominal_hira_op_is_clean(self):
        mc, auditor, oracle = _setup(mode="hira")
        eff = 1000 + mc.hira_gap_c
        auditor.on_hira_op(1000, 0, 0, 7, 9, eff, close=eff + mc.tras_c)
        assert oracle.check(auditor.records) == []
        assert auditor.violations() == []


class TestNoFalsePositives:
    """Clean fuzzed logs from all three engines × both granularities."""

    @pytest.mark.parametrize("mode", ["baseline", "elastic", "hira"])
    @pytest.mark.parametrize("granularity", ["all_bank", "same_bank"])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_engines_clean_under_oracle(self, mode, granularity, seed):
        config = SystemConfig(
            refresh_mode=mode, refresh_granularity=granularity, cores=4
        )
        mix = [
            TraceProfile(
                f"fp{seed}-{i}", mpki=25.0, row_locality=0.5,
                read_fraction=0.6, working_set_rows=2048,
            )
            for i in range(4)
        ]
        system = System(config, mix, seed=seed, instr_budget=5_000)
        auditors = attach_auditors(system)
        result = system.run(max_cycles=3_000_000)
        assert result.finished
        oracle = oracle_for_config(config)
        for auditor in auditors:
            assert auditor.violations() == []
            assert oracle.check_messages(auditor.records) == []


class TestLogInterchange:
    def test_export_replay_matches_live_check(self):
        config = SystemConfig(refresh_mode="hira", refresh_granularity="same_bank", cores=2)
        mix = [
            TraceProfile("x", mpki=20.0, row_locality=0.5, read_fraction=0.5,
                         working_set_rows=1024)
        ] * 2
        system = System(config, mix, seed=11, instr_budget=3_000)
        auditors = attach_auditors(system)
        assert system.run().finished
        auditor = auditors[0]
        live = oracle_for_config(config)
        payload = json.loads(json.dumps(auditor.export_log()))
        replayed = TimingOracle(table_for_log(payload))
        assert replayed.table == live.table
        live_v = [str(v) for v in live.check(auditor.records)]
        replay_v = [str(v) for v in replayed.check(records_from_log(payload))]
        assert replay_v == live_v == []

    def test_replay_still_flags_planted_violation(self):
        # Mutate an exported log: the replayed oracle must flag it — the
        # vacuous-table guard.
        mc, auditor, oracle = _setup()
        auditor.on_ref(1000, 0)
        auditor.on_refsb(1000 + mc.trfc_c - 1, 0, 0)
        payload = auditor.export_log()
        replayed = TimingOracle(table_for_log(payload))
        violations = replayed.check(records_from_log(payload))
        assert any(v.rule.startswith("tRFC(REF->REFSB)") for v in violations)

    def test_build_from_cycle_values_matches_timing_params(self):
        config = SystemConfig()
        geometry = config.geometry
        via_params = build_rule_table(
            config.timing,
            banks_per_bankgroup=geometry.banks_per_bankgroup,
            banks_per_rank=geometry.banks_per_rank,
            n_ranks=config.ranks_per_channel,
        )
        c = config.timing.to_cycles
        via_cycles = build_rule_table_cycles(
            trcd=c(config.timing.trcd), tras=c(config.timing.tras),
            trp=c(config.timing.trp), trc=c(config.timing.trc),
            trfc=c(config.timing.trfc), trefi=c(config.timing.trefi),
            tfaw=c(config.timing.tfaw), trrd_s=c(config.timing.trrd_s),
            trrd_l=c(config.timing.trrd_l), twr=c(config.timing.twr),
            trtp=c(config.timing.trtp), tcl=c(config.timing.tcl),
            tcwl=c(config.timing.tcwl), tbl=c(config.timing.tbl),
            trtw=c(config.timing.trtw), twtr=c(config.timing.twtr),
            trfc_sb=c(config.timing.trfc_sb),
            trefsb_gap=c(config.timing.trefsb_gap),
            hira_gap=c(config.timing.hira_t1 + config.timing.hira_t2),
            banks_per_bankgroup=geometry.banks_per_bankgroup,
            banks_per_rank=geometry.banks_per_rank,
            n_ranks=config.ranks_per_channel,
        )
        assert via_cycles == via_params


# ----------------------------------------------------------------------
# The incremental replay: feed / earliest / check
# ----------------------------------------------------------------------
_STREAM_CONFIGS = {
    "baseline": dict(refresh_mode="baseline"),
    "elastic-sb": dict(refresh_mode="elastic", refresh_granularity="same_bank"),
    "hira": dict(refresh_mode="hira", tref_slack_acts=2),
}


@functools.lru_cache(maxsize=None)
def _legal_stream(name: str, seed: int):
    """A controller-issued (hence legal) command stream, in issue order."""
    config = SystemConfig(**_STREAM_CONFIGS[name], cores=2)
    mix = [
        TraceProfile(f"e{seed}-{i}", mpki=30.0, row_locality=0.4,
                     read_fraction=0.6, working_set_rows=1024)
        for i in range(2)
    ]
    system = System(config, mix, seed=seed, instr_budget=20_000)
    auditors = attach_auditors(system)
    assert system.run().finished
    return config, tuple(auditors[0].records)


class TestIncrementalReplay:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(_STREAM_CONFIGS)),
        seed=st.integers(min_value=0, max_value=2),
        cut=st.floats(min_value=0.0, max_value=1.0),
        kind=st.sampled_from(["ACT", "PRE", "RD", "WR"]),
        bank=st.integers(min_value=0, max_value=15),
    )
    def test_earliest_is_tight(self, name, seed, cut, kind, bank):
        """At the returned cycle the command breaks no pair, window or bus
        rule; one cycle earlier it breaks the rule ``earliest`` named."""
        config, records = _legal_stream(name, seed)
        # Cut between issue primitives, so held (ahead-stamped) records
        # of the last operations are still pending.
        boundaries = [
            i for i, r in enumerate(records) if r.tag not in AHEAD_TAGS
        ] + [len(records)]
        prefix = records[: boundaries[int(cut * (len(boundaries) - 1))]]
        replay = oracle_for_config(config)
        for rec in prefix:
            replay.feed(rec)
        timing_ids = {
            r.rule_id for r in (*replay.table.pair_rules,
                                *replay.table.window_rules,
                                *replay.table.bus_rules)
        }

        def broken(at: int) -> set[str]:
            trial = replay.fork()
            probe = CommandRecord(at, kind, 0, bank)
            trial.feed(probe)
            return {
                v.rule for v in trial.finish()
                if v.curr is probe and v.rule in timing_ids
            }

        cycle, rule = replay.earliest(kind, 0, bank)
        if rule is None:
            assert broken(0) == set()
            return
        assert broken(cycle) == set()
        assert rule in broken(cycle - 1)

    def test_earliest_counts_held_records(self):
        mc, auditor, oracle = _setup(mode="hira")
        eff = 1000 + mc.hira_gap_c
        close = eff + mc.tras_c
        auditor.on_hira_op(1000, 0, 0, 7, 9, eff, close=close)
        for rec in auditor.records:
            oracle.feed(rec)
        # Neither the second ACT nor the closing PRE has been applied ...
        assert oracle.earliest("ACT", 0, 0) == (close + mc.trp_c, "tRP(PRE->ACT)@same-bank")
        # ... yet both count: the rank's next ACT waits tRRD_S after eff.
        assert oracle.earliest("ACT", 0, 8) == (eff + mc.trrd_s_c, "tRRD_S(ACT->ACT)@same-rank")
        assert oracle.finish() == []

    def test_check_replays_through_a_fresh_state(self):
        mc, auditor, oracle = _setup()
        auditor.on_act(1000, 0, 0, 5)
        auditor.on_act(1000 + mc.trrd_s_c - 1, 0, 4, 6)
        auditor.on_col(1000 + mc.trcd_c, 0, 0, is_write=False)
        first = oracle.check(auditor.records)
        assert first and oracle.check(auditor.records) == first
        # The instance's own (live) replay state is untouched by check().
        assert oracle.earliest("ACT", 0, 0) == (-1 << 60, None)

    def test_live_feed_matches_check(self):
        config, records = _legal_stream("hira", 0)
        replay = oracle_for_config(config)
        for rec in records:
            replay.feed(rec)
        assert replay.finish() == replay.check(records) == []
