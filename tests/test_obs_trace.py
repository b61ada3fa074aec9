"""Deterministic sim tracing (src/repro/obs/tracer.py).

The contract under test: arming a :class:`SimTracer` never changes the
simulation (disarmed runs are bit-identical), its export is byte-stable
across repeated runs *and* across execution backends (cycle-stamped,
never wall-clocked), the Chrome trace-event JSON validates, and the
never-dropped aggregate counters survive ring-buffer overflow.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.tracer import (
    DECISION_KINDS,
    STALL_REASONS,
    SimTracer,
    attach_tracers,
    trace_json,
    validate_chrome_trace,
)
from repro.orchestrator import result_to_dict
from repro.orchestrator.execute import TRACE_DIR_ENV
from repro.sim.audit import CommandAuditor, attach_auditors
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController, NoRefreshEngine
from repro.sim.request import Request
from repro.sim.system import System
from repro.workloads.mixes import mix_for

BUDGET = 4_000


def _run(overrides: dict, *, trace: bool = True, seed: int = 5):
    config = SystemConfig(**overrides)
    system = System(
        config, mix_for(0, cores=config.cores), seed=seed, instr_budget=BUDGET
    )
    tracers = attach_tracers(system) if trace else []
    result = system.run()
    return system, tracers, result


MODES = [
    dict(refresh_mode="baseline"),
    dict(refresh_mode="elastic", refresh_granularity="same_bank"),
    dict(refresh_mode="hira", tref_slack_acts=2),
]


@pytest.mark.parametrize("overrides", MODES, ids=lambda o: o["refresh_mode"])
def test_armed_run_is_bit_identical_to_disarmed(overrides):
    __, __, armed = _run(overrides, trace=True)
    __, __, plain = _run(overrides, trace=False)
    assert json.dumps(result_to_dict(armed), sort_keys=True) == json.dumps(
        result_to_dict(plain), sort_keys=True
    )


@pytest.mark.parametrize("overrides", MODES, ids=lambda o: o["refresh_mode"])
def test_trace_export_is_byte_identical_across_runs(overrides):
    first = [trace_json(t.export()) for t in _run(overrides)[1]]
    second = [trace_json(t.export()) for t in _run(overrides)[1]]
    assert first == second
    assert all(first)


@pytest.mark.parametrize("overrides", MODES, ids=lambda o: o["refresh_mode"])
def test_chrome_trace_schema_validates(overrides):
    __, tracers, __ = _run(overrides)
    for tracer in tracers:
        payload = tracer.export()
        assert validate_chrome_trace(payload) == []
        # The canonical form is loadable JSON with the same content.
        assert json.loads(trace_json(payload)) == payload


def test_validator_catches_planted_problems():
    __, tracers, __ = _run(MODES[0])
    payload = tracers[0].export()
    good = json.loads(trace_json(payload))
    bad = json.loads(trace_json(payload))
    bad["traceEvents"][0]["ph"] = "X"
    assert validate_chrome_trace(good) == []
    assert validate_chrome_trace(bad)
    bad2 = json.loads(trace_json(payload))
    del bad2["traceEvents"]
    assert validate_chrome_trace(bad2)


def test_command_counts_match_controller_stats():
    __, tracers, result = _run(dict(refresh_mode="hira", tref_slack_acts=2))
    for tracer, stats in zip(tracers, result.controller_stats):
        n = tracer.command_counts
        assert (
            n["ACT"] + 2 * n["HIRA_ACT"] + 2 * n["HIRA_PAIR"] + n["SOLO_REF"]
            == stats.acts
        )
        assert n["RD"] == stats.reads_served
        assert n["WR"] == stats.writes_served
        assert n["REF"] == stats.refs
        # The compound names come from the auditor records' tags.
        assert (
            n["PRE"] + n["HIRA_ACT"] + 2 * n["HIRA_PAIR"] + n["SOLO_REF"]
            == stats.pres
        )
        assert n["SOLO_REF"] == stats.solo_refreshes
        assert n["HIRA_ACT"] == stats.hira_access_parallelized
        assert n["HIRA_PAIR"] == stats.hira_refresh_parallelized
        assert n["HIRA_PAIR"] and n["SOLO_REF"]


def test_compound_commands_are_named_from_record_tags():
    mc = MemoryController(0, SystemConfig(refresh_mode="none"), NoRefreshEngine())
    tracer = SimTracer(mc)
    gap = mc.hira_gap_c
    mc.issue_hira_act(0, 0, 7, 9, 0)
    mc.issue_hira_refresh_pair(0, 4, 100)
    mc.issue_solo_refresh(0, 8, 200)
    mc.issue_act(0, 12, 3, 300)
    assert [(cycle, name, args) for cycle, name, __, args in tracer._events] == [
        (0, "HIRA_ACT", {"rank": 0, "bank": 0, "refresh_row": 7,
                         "target_row": 9, "eff": gap}),
        (100, "HIRA_PAIR", {"rank": 0, "bank": 4, "close": 100 + gap + mc.tras_c}),
        (200, "SOLO_REF", {"rank": 0, "bank": 8, "close": 200 + mc.tras_c}),
        (300, "ACT", {"rank": 0, "bank": 12, "row": 3}),
    ]
    assert tracer.bank_acts == {(0, 0): 2, (0, 4): 2, (0, 8): 1, (0, 12): 1}


@pytest.mark.parametrize("tracer_first", [True, False], ids=["tracer-first", "auditor-first"])
def test_tracer_and_auditor_share_one_command_log(tracer_first):
    config = SystemConfig(refresh_mode="hira", tref_slack_acts=2)
    system = System(config, mix_for(0, cores=config.cores), seed=5, instr_budget=BUDGET)
    if tracer_first:
        tracers = attach_tracers(system)
        auditors = attach_auditors(system)
    else:
        auditors = attach_auditors(system)
        tracers = attach_tracers(system)
    result = system.run()
    for mc, tracer, auditor, stats in zip(
        system.controllers, tracers, auditors, result.controller_stats
    ):
        assert mc.auditor is auditor is tracer.auditor
        assert auditor.subscribers == [tracer._on_records]
        assert sum(r.kind == "ACT" for r in auditor.records) == stats.acts
        assert sum(tracer.bank_acts.values()) == stats.acts
        assert auditor.violations() == []


def test_second_auditor_on_a_controller_is_rejected():
    mc = MemoryController(0, SystemConfig(refresh_mode="none"), NoRefreshEngine())
    first = CommandAuditor(mc)
    with pytest.raises(ValueError, match="already has an auditor"):
        CommandAuditor(mc)
    assert mc.auditor is first
    tracer = SimTracer(mc)
    assert tracer.auditor is first


def test_stalls_and_decisions_use_known_vocabulary():
    __, tracers, __ = _run(dict(refresh_mode="hira", tref_slack_acts=2))
    stall_reasons = set()
    decisions = set()
    for tracer in tracers:
        stall_reasons |= set(tracer.stall_counts)
        decisions |= set(tracer.decision_counts)
    assert stall_reasons and stall_reasons <= set(STALL_REASONS)
    assert decisions and decisions <= set(DECISION_KINDS)
    # The HiRA engine's signature decisions must appear.
    assert "pair" in decisions or "pull-forward" in decisions


def test_ring_buffer_bounds_events_but_not_counters():
    config = SystemConfig(refresh_mode="baseline")
    system = System(config, mix_for(0), seed=5, instr_budget=BUDGET)
    small = [SimTracer(mc, capacity=64) for mc in system.controllers]
    system.run()
    for tracer in small:
        assert len(tracer._events) <= 64
        assert tracer.events_total > 64  # this workload overflows the ring
        assert tracer.dropped == tracer.events_total - len(tracer._events)
        # Aggregates are never dropped: the command counters still sum to
        # more events than the ring holds.
        assert sum(tracer.command_counts.values()) > 64
        payload = tracer.export()
        assert payload["otherData"]["dropped"] == tracer.dropped
        assert validate_chrome_trace(payload) == []


def test_stall_attribution_reads_every_bank_head():
    """The binding rule is found among all bank heads, not a queue prefix.

    Eight reads wait on a bank precharged late; a ninth, behind them in
    the queue, waits on a bank precharged earlier.  Both wait out tRP
    after real PRE commands.  The stall must name the ninth read's bank
    and its earlier release cycle.
    """
    mc = MemoryController(0, SystemConfig(refresh_mode="none"), NoRefreshEngine())
    tracer = SimTracer(mc)
    act1 = mc.trrd_l_c  # banks 0 and 1 share a bank group
    pre1 = act1 + mc.trc_c
    pre0 = pre1 + 4
    mc.issue_act(0, 0, 100, 0)
    mc.issue_act(0, 1, 100, act1)
    mc.issue_pre(0, 1, pre1)
    mc.issue_pre(0, 0, pre0)
    for i, bank in enumerate([0] * 8 + [1]):
        mc.enqueue(
            Request(
                is_write=False, core_id=0, arrival_cycle=0,
                rank=0, bank=bank, row=i,
            )
        )
    assert not mc.schedule(pre0 + 1)
    assert tracer.stall_counts == {"tRP(PRE->ACT)@same-bank": 1}
    __, name, __, args = tracer._events[-1]
    assert name == "stall"
    assert (args["bank"], args["until"]) == (1, pre1 + mc.trp_c)
    assert pre1 + mc.trp_c < pre0 + mc.trp_c


def test_skipped_span_closes_at_deferred_close_and_run_end():
    """The loop skips cycles while a read waits on a solo refresh's bank;
    every skipped cycle is charged as a stall, except the one whose
    deferred close takes the command bus (it issues no record), and the
    span is charged through the loop's last visited cycle at run end."""
    mc = MemoryController(0, SystemConfig(refresh_mode="none"), NoRefreshEngine())
    tracer = SimTracer(mc)
    mc.issue_solo_refresh(0, 8, 0)
    close = mc._scheduled_closes[0][0]
    mc.enqueue(
        Request(is_write=False, core_id=0, arrival_cycle=0, rank=0, bank=8, row=5)
    )
    assert not mc.schedule(1)
    assert mc._progress_at == close  # the loop skips to the close
    assert mc.schedule(close)
    assert not mc.schedule(close + 1)
    tracer.on_run_end(close + 9, close + 3)
    stalls = [cycle for cycle, __, cat, __ in tracer._events if cat == "stall"]
    assert stalls == [c for c in range(1, close + 4) if c != close]
    assert sum(tracer.stall_counts.values()) == len(stalls)
    assert tracer.end_cycle == close + 9


def test_summary_reports_histograms():
    __, tracers, __ = _run(dict(refresh_mode="baseline"))
    summary = tracers[0].summary()
    assert summary["commands"]
    assert summary["queue_depth"]
    assert summary["bank_acts"]
    assert all(":" in key for key in summary["bank_acts"])


# ----------------------------------------------------------------------
# Cross-backend determinism via REPRO_TRACE_DIR
# ----------------------------------------------------------------------
def _sweep():
    from repro.orchestrator import Sweep, Variant, axis, mix_workloads

    return Sweep(
        name="trace-x",
        axes=(axis("cfg", Variant.make("baseline", refresh_mode="baseline")),),
        workloads=mix_workloads(1),
        base=SystemConfig(),
        instr_budget=BUDGET,
    )


def _traced_sweep_files(backend, trace_dir, monkeypatch) -> dict[str, bytes]:
    from repro.orchestrator import run_sweep

    monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))
    run_sweep(_sweep(), backend=backend, cache=None)
    files = {
        name: (trace_dir / name).read_bytes()
        for name in os.listdir(trace_dir)
        if name.endswith(".trace.json")
    }
    assert files, f"backend {backend!r} wrote no traces"
    return files


@pytest.mark.parametrize("other", ["local", "socket"])
def test_trace_files_identical_across_backends(other, tmp_path, monkeypatch):
    serial = _traced_sweep_files("serial", tmp_path / "serial", monkeypatch)
    if other == "local":
        got = _traced_sweep_files("local", tmp_path / "local", monkeypatch)
    else:
        from repro.orchestrator.backends import SocketBackend

        # Spawned workers inherit the environment at spawn time, so the
        # trace dir must be armed before the backend launches them.
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path / "socket"))
        backend = SocketBackend(port=0, spawn_workers=1)
        try:
            got = _traced_sweep_files(backend, tmp_path / "socket", monkeypatch)
        finally:
            backend.close()
    assert got == serial  # same filenames (content-keyed), same bytes


def test_execute_point_writes_no_traces_when_disarmed(tmp_path, monkeypatch):
    from repro.orchestrator import run_sweep

    monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
    run_sweep(_sweep(), backend="serial", cache=None)
    assert not list(tmp_path.iterdir())
