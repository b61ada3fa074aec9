"""Metrics registry + stats export tables + kernel phase profiler.

The load-bearing invariants: the field→metric tables cover the stats
dataclasses exactly (the only check of that parity besides the runtime
``KeyError`` on a missing field), registry snapshots are
deterministic, and the profiler always restores what it patched so
profiled and unprofiled runs can share a process.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chip.chip_model import ChipStats
from repro.obs.metrics import (
    CHIP_METRICS,
    CONTROLLER_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_from_result,
    record_chip_stats,
    record_controller_stats,
)
from repro.sim.controller import ControllerStats


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_counter_labels_and_total():
    c = Counter("jobs", "")
    c.inc(state="queued")
    c.inc(2, state="queued")
    c.inc(state="done")
    assert c.value(state="queued") == 3
    assert c.value(state="done") == 1
    assert c.value(state="nope") == 0
    assert c.total() == 4
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_and_clear():
    g = Gauge("age", "")
    g.set(1.5, worker="a")
    g.inc(0.5, worker="a")
    assert g.value(worker="a") == 2.0
    g.clear(worker="a")
    assert "worker=a" not in g.snapshot()["values"]
    assert g.value(worker="a") == 0


def test_histogram_buckets():
    h = Histogram("depth", "", buckets=(1, 2, 4))
    for v in (0, 1, 3, 100):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == [1, 2, 4]
    cell = snap["values"][""]
    assert cell["total"] == 4
    assert cell["sum"] == 104
    # 0 and 1 land in le-1; 3 in le-4; 100 exceeds every bound and is
    # counted only in sum/total.
    assert cell["counts"] == [2, 0, 1]
    with pytest.raises(ValueError):
        Histogram("bad", "", buckets=(4, 2))


def test_registry_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    first = reg.counter("x", "help")
    assert reg.counter("x") is first
    with pytest.raises(ValueError):
        reg.gauge("x")
    assert "x" in reg
    assert reg.names() == ["x"]
    assert list(reg.snapshot()) == ["x"]


# ----------------------------------------------------------------------
# Stats export tables (exact parity with the stats dataclasses)
# ----------------------------------------------------------------------
def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_controller_table_matches_dataclass_exactly():
    assert set(CONTROLLER_METRICS) == _field_names(ControllerStats)


def test_chip_table_matches_dataclass_exactly():
    assert set(CHIP_METRICS) == _field_names(ChipStats)


def test_record_controller_stats_round_trip():
    reg = MetricsRegistry()
    stats = ControllerStats(reads_served=7, acts=3)
    record_controller_stats(reg, stats, channel=0)
    assert reg.get("sim_reads_served_total").value(channel="0") == 7
    assert reg.get("sim_acts_total").value(channel="0") == 3
    # Every table metric exists after one recording.
    for metric_name, __ in CONTROLLER_METRICS.values():
        assert metric_name in reg


def test_record_chip_stats_round_trip():
    reg = MetricsRegistry()
    record_chip_stats(reg, ChipStats(acts=5, refs=2), module="C0")
    assert reg.get("chip_acts_total").value(module="C0") == 5
    assert reg.get("chip_refs_total").value(module="C0") == 2


def test_metrics_from_result_folds_channels():
    from repro.sim.config import SystemConfig
    from repro.sim.system import System
    from repro.workloads.mixes import mix_for

    config = SystemConfig(refresh_mode="baseline", channels=2)
    result = System(
        config, mix_for(0, cores=config.cores), seed=3, instr_budget=2_000
    ).run()
    reg = metrics_from_result(result)
    reads = reg.get("sim_reads_served_total")
    assert reads.total() == result.stat_total("reads_served")
    assert reads.total() == sum(
        reads.value(channel=str(ch)) for ch in range(2)
    )


def test_stale_stats_field_raises():
    reg = MetricsRegistry()

    @dataclasses.dataclass
    class Grown(ControllerStats):
        brand_new_counter: int = 0

    with pytest.raises(KeyError, match="brand_new_counter"):
        record_controller_stats(reg, Grown(), channel=0)


# ----------------------------------------------------------------------
# Phase profiler
# ----------------------------------------------------------------------
def test_profiler_report_shape_and_restoration():
    from repro.obs.profiler import PHASES, profile_workload
    from repro.sim.controller import MemoryController

    before = MemoryController.schedule
    report = profile_workload(dict(refresh_mode="hira", tref_slack_acts=2),
                              instr_budget=2_000)
    # Everything patched was restored.
    assert MemoryController.schedule is before
    assert not hasattr(MemoryController.schedule, "__profiled_phase__")
    assert set(report["phases"]) == set(PHASES)
    assert report["wall_s"] > 0
    assert report["phases"]["schedule"]["calls"] > 0
    assert report["phases"]["refresh-engine"]["calls"] > 0
    tracked = sum(p["seconds"] for p in report["phases"].values())
    assert report["other_s"] == pytest.approx(
        max(0.0, report["wall_s"] - tracked), abs=0.01
    )


def test_profiler_is_observation_only():
    import json as _json

    from repro.obs.profiler import PhaseProfiler
    from repro.orchestrator import result_to_dict
    from repro.sim.config import SystemConfig
    from repro.sim.system import System
    from repro.workloads.mixes import mix_for

    def run(profiled: bool):
        config = SystemConfig(refresh_mode="baseline")
        system = System(config, mix_for(0), seed=9, instr_budget=2_000)
        if profiled:
            with PhaseProfiler():
                return system.run()
        return system.run()

    assert _json.dumps(result_to_dict(run(True)), sort_keys=True) == _json.dumps(
        result_to_dict(run(False)), sort_keys=True
    )


def test_profile_kernel_aggregates(monkeypatch):
    import repro.perf as perf

    monkeypatch.setattr(
        perf, "KERNEL_WORKLOADS",
        (("tiny", dict(refresh_mode="baseline")),),
    )
    out = perf.profile_kernel(instr_budget=1_000)
    assert set(out["workloads"]) == {"tiny"}
    assert out["wall_s"] > 0
    assert set(out["phases"])  # aggregated across workloads


def test_measure_workload_guards_degenerate_walls(monkeypatch):
    """A near-zero timed window (broken/too-coarse clock) must report
    0.0 rates — failing any CI floor loudly — never inf/absurd ones,
    and must drop the speedup-vs-pre-opt column rather than fake it."""
    import repro.perf as perf

    monkeypatch.setattr(perf.time, "perf_counter", lambda: 1.0)
    row = perf.measure_workload(
        "fig12-para-nrh64",
        dict(refresh_mode="baseline", para_nrh=64.0),
        instr_budget=perf.PRE_PR_INSTR_BUDGET // 100,
        reps=1,
    )
    assert row["wall_s"] == 0.0
    assert row["events"] > 0
    assert row["events_per_sec"] == 0.0
    assert row["cycles_per_sec"] == 0.0
    assert row["instr_per_sec"] == 0.0
    assert "speedup_vs_pre_pr" not in row
