"""Extensions beyond the paper's headline results: Graphene-like tracking,
elastic refresh, and the DDR5 preset."""

import pytest

from repro.dram.timing import DDR4_2400, DDR5_4800
from repro.rowhammer.graphene import GrapheneTracker
from repro.sim.config import SystemConfig
from repro.sim.elastic import ElasticRefreshEngine
from repro.sim.system import System
from repro.workloads.mixes import mix_for


class TestGrapheneTracker:
    def test_hot_row_detected(self):
        tracker = GrapheneTracker(threshold=100, entries=8)
        fired = None
        for __ in range(150):
            fired = tracker.observe(42) or fired
        assert fired == 42

    def test_fires_exactly_at_threshold(self):
        tracker = GrapheneTracker(threshold=10, entries=8)
        results = [tracker.observe(3) for __ in range(10)]
        assert results == [None] * 9 + [3]

    def test_counter_resets_after_trigger(self):
        tracker = GrapheneTracker(threshold=10, entries=8)
        for __ in range(10):
            result = tracker.observe(7)
        assert result == 7
        assert 7 not in tracker.counters

    def test_cold_rows_never_trigger(self):
        tracker = GrapheneTracker(threshold=50, entries=4)
        for row in range(1_000):
            assert tracker.observe(row) is None

    def test_heavy_hitter_guarantee(self):
        """A row with > total/(entries+1) activations is always tracked."""
        tracker = GrapheneTracker(threshold=10_000, entries=4)
        for i in range(500):
            tracker.observe(1)  # heavy
            tracker.observe(100 + i)  # noise, all distinct
        assert tracker.counters[1] >= 500 - tracker.spillover

    def test_configured_for_slack_reduces_threshold(self):
        base = GrapheneTracker.configured_for(nrh=1_024)
        slack = GrapheneTracker.configured_for(nrh=1_024, tref_slack_acts=8)
        assert slack.threshold == base.threshold - 8

    def test_table_grows_as_nrh_falls(self):
        big = GrapheneTracker.configured_for(nrh=4_096)
        small = GrapheneTracker.configured_for(nrh=256)
        assert small.entries > big.entries

    def test_unprotectable_threshold_rejected(self):
        with pytest.raises(ValueError):
            GrapheneTracker.configured_for(nrh=8, tref_slack_acts=8)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GrapheneTracker(threshold=0, entries=4)
        with pytest.raises(ValueError):
            GrapheneTracker(threshold=10, entries=0)


class TestElasticRefresh:
    def _run(self, mode, budget=40_000):
        cfg = SystemConfig(capacity_gbit=32.0, refresh_mode=mode)
        return System(cfg, mix_for(0), seed=1, instr_budget=budget).run(
            max_cycles=6_000_000
        )

    def test_elastic_mode_accepted(self):
        assert SystemConfig(refresh_mode="elastic").refresh_mode == "elastic"

    def test_elastic_at_least_as_good_as_baseline(self):
        elastic = self._run("elastic")
        baseline = self._run("baseline")
        assert elastic.weighted_speedup >= baseline.weighted_speedup * 0.99

    def test_refreshes_still_happen_under_load(self):
        res = self._run("elastic", budget=80_000)
        assert res.stat_total("refs") > 0

    def test_postponement_budget_validated(self):
        with pytest.raises(ValueError):
            ElasticRefreshEngine(max_postponed=-1)


class TestDdr5Preset:
    def test_refresh_rate_doubled(self):
        assert DDR5_4800.trefw == DDR4_2400.trefw // 2
        assert DDR5_4800.trefi == DDR4_2400.trefi // 2

    def test_faster_clock(self):
        assert DDR5_4800.tck < DDR4_2400.tck

    def test_hira_identity_holds_on_ddr5(self):
        from repro.dram.timing import (
            hira_two_row_refresh_latency_ps,
            nominal_two_row_refresh_latency_ps,
        )

        assert hira_two_row_refresh_latency_ps(DDR5_4800) < (
            nominal_two_row_refresh_latency_ps(DDR5_4800)
        )

    def test_system_runs_on_ddr5(self):
        cfg = SystemConfig(
            capacity_gbit=16.0, refresh_mode="hira", timing=DDR5_4800
        )
        res = System(cfg, mix_for(1), seed=2, instr_budget=20_000).run(
            max_cycles=6_000_000
        )
        assert res.finished


class TestGrapheneDefenseIntegration:
    def test_defense_config_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(defense="unknown")

    def test_graphene_triggers_on_hot_row(self):
        from repro.rowhammer.defense import GrapheneDefense

        defense = GrapheneDefense(nrh=256, tref_slack_acts=0)
        victims = []
        for __ in range(200):
            victim = defense.preventive_refresh_target(500, 1_000, bank_key=(0, 1))
            if victim is not None:
                victims.append(victim)
        # Both neighbours eventually refreshed (threshold 64 = 256/4).
        assert 499 in victims and 501 in victims

    def test_graphene_idle_on_cold_stream(self):
        from repro.rowhammer.defense import GrapheneDefense

        defense = GrapheneDefense(nrh=256)
        for row in range(500):
            assert defense.preventive_refresh_target(row, 10_000, bank_key=(0, 0)) is None

    def test_graphene_per_bank_state(self):
        from repro.rowhammer.defense import GrapheneDefense

        defense = GrapheneDefense(nrh=256)
        for __ in range(40):
            defense.preventive_refresh_target(5, 1_000, bank_key=(0, 0))
        # Same row in a different bank has its own counter.
        tracker_a = defense._trackers[(0, 0)]
        assert (0, 1) not in defense._trackers
        assert tracker_a.counters[5] >= 40 - tracker_a.spillover

    def test_system_runs_with_graphene(self):
        cfg = SystemConfig(
            capacity_gbit=8.0, refresh_mode="hira", para_nrh=512.0,
            defense="graphene", tref_slack_acts=2,
        )
        res = System(cfg, mix_for(0), seed=3, instr_budget=20_000).run(
            max_cycles=8_000_000
        )
        assert res.finished
