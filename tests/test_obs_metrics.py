"""Metrics registry + the kernel perf measurement's wall guard.

The load-bearing invariants: registry snapshots are deterministic, and a
degenerate timed window reports zero rates rather than absurd ones.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_counter_labels():
    c = Counter("jobs", "")
    c.inc(state="queued")
    c.inc(2, state="queued")
    c.inc(state="done")
    assert c.value(state="queued") == 3
    assert c.value(state="done") == 1
    assert c.value(state="nope") == 0
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_overwrites():
    g = Gauge("age", "")
    g.set(1.5, worker="b")
    g.set(0.5, worker="a")
    g.set(2.0, worker="b")
    assert g.snapshot()["values"] == {"worker=a": 0.5, "worker=b": 2.0}
    assert list(g.snapshot()["values"]) == ["worker=a", "worker=b"]


def test_label_order_is_irrelevant():
    c = Counter("acts", "")
    c.inc(bank=3, rank=0)
    c.inc(rank=0, bank=3)
    assert c.value(rank=0, bank=3) == 2
    assert list(c.snapshot()["values"]) == ["bank=3,rank=0"]


def test_unlabelled_value_is_its_own_series():
    c = Counter("jobs", "help text")
    c.inc()
    c.inc(state="done")
    assert c.value() == 1
    assert c.snapshot() == {
        "kind": "counter",
        "help": "help text",
        "values": {"": 1, "state=done": 1},
    }


def test_registry_snapshot_is_byte_stable_across_registration_order():
    def build(order):
        reg = MetricsRegistry()
        for name in order:
            reg.counter(name).inc(worker="w1")
        reg.gauge("age").set(0.5, worker="w1")
        return json.dumps(reg.snapshot())

    assert build(["b", "a", "c"]) == build(["c", "b", "a"])


def test_registry_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    first = reg.counter("x", "help")
    assert reg.counter("x") is first
    with pytest.raises(ValueError):
        reg.gauge("x")
    reg.gauge("a")
    assert list(reg.snapshot()) == ["a", "x"]


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
