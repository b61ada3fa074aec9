"""End-to-end system runs: small but real simulations."""

import pytest

from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.sim.trace import TraceProfile
from repro.workloads.mixes import mix_for


def small_mix(cores=8, mpki=15.0, locality=0.7):
    return [
        TraceProfile("t%d" % i, mpki=mpki, row_locality=locality)
        for i in range(cores)
    ]


def run(mode="none", budget=8_000, mix=None, **overrides):
    config = SystemConfig(refresh_mode=mode, **overrides)
    system = System(config, mix or small_mix(config.cores), seed=3, instr_budget=budget)
    return system.run(max_cycles=3_000_000)


class TestBasicRuns:
    def test_completes_and_counts(self):
        res = run()
        assert res.finished
        assert res.stat_total("reads_served") > 0
        assert all(ipc > 0 for ipc in res.ipcs)
        assert all(n == 8_000 for n in res.instructions)

    def test_profile_count_validated(self):
        config = SystemConfig()
        with pytest.raises(ValueError):
            System(config, small_mix(cores=3), seed=1)

    def test_negative_tref_slack_rejected(self):
        assert SystemConfig(refresh_mode="hira", tref_slack_acts=0).tref_slack_ps == 0
        with pytest.raises(ValueError, match="tref_slack_acts"):
            SystemConfig(refresh_mode="hira", tref_slack_acts=-3)

    def test_deterministic(self):
        a = run()
        b = run()
        assert a.cycles == b.cycles
        assert a.ipcs == b.ipcs

    def test_seeds_change_outcome(self):
        config = SystemConfig(refresh_mode="none")
        r1 = System(config, small_mix(), seed=1, instr_budget=8_000).run()
        r2 = System(config, small_mix(), seed=2, instr_budget=8_000).run()
        assert r1.cycles != r2.cycles


class TestConfigOrdering:
    def test_refresh_costs_performance(self):
        ideal = run(mode="none", budget=40_000, capacity_gbit=32.0)
        baseline = run(mode="baseline", budget=40_000, capacity_gbit=32.0)
        assert baseline.weighted_speedup < ideal.weighted_speedup

    def test_hira_recovers_some_overhead(self):
        mix = small_mix(mpki=18.0, locality=0.8)
        ideal = run(mode="none", budget=60_000, capacity_gbit=128.0, mix=mix)
        baseline = run(mode="baseline", budget=60_000, capacity_gbit=128.0, mix=mix)
        hira = run(
            mode="hira", budget=60_000, capacity_gbit=128.0, tref_slack_acts=2, mix=mix
        )
        assert baseline.weighted_speedup < hira.weighted_speedup <= ideal.weighted_speedup * 1.02

    def test_hira_uses_parallelization(self):
        res = run(mode="hira", budget=40_000, capacity_gbit=32.0, tref_slack_acts=4)
        assert res.stat_total("hira_access_parallelized") > 0

    def test_more_channels_not_slower(self):
        mix = small_mix(mpki=25.0, locality=0.6)
        one = run(mode="baseline", budget=30_000, channels=1, mix=mix)
        four = run(mode="baseline", budget=30_000, channels=4, mix=mix)
        assert four.weighted_speedup >= one.weighted_speedup

    def test_para_costs_performance(self):
        mix = small_mix(mpki=18.0, locality=0.8)
        clean = run(mode="baseline", budget=30_000, mix=mix)
        para = run(mode="baseline", budget=30_000, para_nrh=128.0, mix=mix)
        assert para.weighted_speedup < clean.weighted_speedup
        assert para.stat_total("preventive_generated") > 0

    def test_pth_override(self):
        mix = small_mix()
        res = run(mode="baseline", budget=10_000, para_pth_override=0.5, mix=mix)
        assert res.stat_total("preventive_generated") > 0


class TestWithRealMixes:
    def test_random_mix_runs(self):
        res = run(mode="hira", budget=10_000, mix=mix_for(3), tref_slack_acts=2)
        assert res.finished

    def test_unfinished_run_reports(self):
        config = SystemConfig(refresh_mode="none")
        system = System(config, small_mix(), seed=1, instr_budget=10_000_000)
        res = system.run(max_cycles=5_000)
        assert not res.finished
        assert res.cycles >= 5_000
