"""Every ``TimingParams`` field is enforced by both timing layers.

The controller's issue gates (:mod:`repro.sim.controller`) and the
oracle's rule table (:mod:`repro.sim.oracle`) each derive the DDR
timing rules from ``TimingParams``.  This test shows, field by field,
that both layers read the field into the right rule, by moving the
field and watching both react:

(a) the nominal run's command stream violates the oracle built with the
    moved value, on a rule that reads the field (:data:`READERS`): the
    rule exists and the workload reaches its bound;
(b) on every workload where (a) holds, a run under the moved value is
    clean under that oracle: the controller gates on the field.

A minimum-gap field moves up by :data:`STEP_TCK` bus clocks; where that
breaks a ``TimingParams`` validation, its bound partners
(:data:`PARTNERS`) move with it.  ``trefi`` bounds a *maximum* gap (the
nine-tREFI REF cadence), which no short stream comes near, so it moves
down: see :func:`trefi_moved_cycles`.  A new field is a failure of
:func:`test_every_field_has_a_move` until both layers enforce it, or it
joins :data:`EXEMPT_FIELDS` with its reason.
"""

from __future__ import annotations

import functools
from dataclasses import fields, replace

import pytest

from repro.dram.timing import DDR4_2400, TimingParams
from repro.sim import oracle
from repro.sim.audit import attach_auditors
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
from repro.sim.oracle import REF_DEBIT_LIMIT, oracle_for_config
from repro.sim.system import System
from repro.sim.trace import TraceProfile

#: Fields no command-to-command rule reads, each with its reason.
EXEMPT_FIELDS = {
    "tck": (
        "defines the cycle domain itself (every *_c conversion divides "
        "by it); there is no per-command tCK check to make"
    ),
    "trefw": (
        "the retention window feeds the periodic generation *rate* "
        "(SystemConfig.per_bank_refresh_interval_cycles), not any "
        "command-to-command legality rule"
    ),
}

#: Field -> the oracle rules (by name) that read it.
READERS = {
    "trcd": ("tRCD",),
    "tras": ("tRAS",),
    "trp": ("tRP",),
    "trc": ("tRC",),
    "trfc": ("tRFC",),
    "trefi": ("tREFI-cadence",),
    "tfaw": ("tFAW",),
    "trrd_s": ("tRRD_S",),
    "trrd_l": ("tRRD_L",),
    "twr": ("tWR",),
    "trtp": ("tRTP",),
    # tCL and tCWL set the burst starts the data-bus rules compare.
    "tcl": ("tBL+tRTW", "tBL+tWTR"),
    "tcwl": ("tWR", "tBL+tRTW", "tBL+tWTR"),
    "tbl": ("tBL", "tBL+tRTW", "tBL+tWTR", "tWR"),
    "trtw": ("tBL+tRTW",),
    "twtr": ("tBL+tWTR",),
    "trfc_sb": ("tRFC_sb",),
    "trefsb_gap": ("tREFSB_GAP",),
    "hira_t1": ("hira-gap",),
    "hira_t2": ("hira-gap",),
}

#: How far a minimum-gap field moves up, in bus clocks.
STEP_TCK = 3

#: Fields that move with the named one so ``TimingParams`` stays valid:
#: tRC >= tRAS + tRP, tRRD_L >= tRRD_S and t1 + t2 >= tRRD_L.
PARTNERS = {
    "tras": ("trc",),
    "trp": ("trc",),
    "trrd_s": ("trrd_l", "hira_t1"),
    "trrd_l": ("hira_t1",),
}


def _config(mode: str, granularity: str = "all_bank", **overrides) -> SystemConfig:
    return SystemConfig(
        refresh_mode=mode, refresh_granularity=granularity, cores=2, **overrides
    )


_BASE = _config("baseline").timing

#: Name -> (config, MPKI, instructions per core); every run uses seed 7.
WORKLOADS = {
    "baseline": (_config("baseline"), 25.0, 2_500),
    "hira": (_config("hira"), 25.0, 2_500),
    "hira-sb": (_config("hira", "same_bank"), 25.0, 2_500),
    "elastic": (_config("elastic"), 25.0, 2_500),
    "baseline-sb": (_config("baseline", "same_bank"), 25.0, 2_500),
    # tREFI cut to a sixth, as in the dense random matrix: REFsb
    # commands crowd in, so the stream reaches tRFC_sb and tREFSB_GAP.
    "elastic-sb-fast": (
        _config("elastic", "same_bank",
                timing=replace(_BASE, trefi=_BASE.trefi // 6)),
        25.0, 2_500,
    ),
    # A light load that runs past its first REF: it reaches tRFC, and
    # sizes trefi's move.
    "baseline-long": (_config("baseline"), 5.0, 40_000),
}


def _run(config: SystemConfig, mpki: float, instructions: int) -> list:
    profiles = [
        TraceProfile(
            f"cov{i}", mpki=mpki, row_locality=0.5, read_fraction=0.6,
            working_set_rows=2048,
        )
        for i in range(2)
    ]
    system = System(config, profiles, seed=7, instr_budget=instructions)
    (auditor,) = attach_auditors(system)
    assert system.run(max_cycles=2_000_000).finished
    return auditor.records


@functools.cache
def nominal(workload: str) -> list:
    """The workload's command stream under its own timing (clean)."""
    config, mpki, instructions = WORKLOADS[workload]
    records = _run(config, mpki, instructions)
    assert not oracle_for_config(config).check_messages(records)
    return records


@functools.cache
def trefi_moved_cycles() -> int:
    """tREFI, in cycles, that puts the REF cadence limit (nine tREFI plus
    tRFC) one cycle under the longest REF-free span of the long Baseline
    stream, counted from cycle 0 and to the stream's end.

    That stream's first REF comes at cycle 9,405 (tREFI is 9,364
    cycles and tRFC 460), so tREFI moves down to 993 cycles: the limit
    drops from 84,736 to 9,397 cycles.  A run under it refreshes about
    nine times as often, and still finishes.
    """
    config = WORKLOADS["baseline-long"][0]
    records = nominal("baseline-long")
    marks = [0, *(r.cycle for r in records if r.kind == "REF")]
    marks.append(max(r.cycle for r in records))
    span = max(b - a for a, b in zip(marks, marks[1:]))
    trfc = config.timing.to_cycles(config.timing.trfc)
    return (span - 1 - trfc) // REF_DEBIT_LIMIT


def moved(timing: TimingParams, name: str) -> TimingParams:
    if name == "trefi":
        return replace(timing, trefi=trefi_moved_cycles() * timing.tck)
    step = STEP_TCK * timing.tck
    return replace(
        timing,
        **{n: getattr(timing, n) + step for n in (name, *PARTNERS.get(name, ()))},
    )


def check_enforced(name: str) -> None:
    """Fail unless (a) holds on some workload, and (b) on each of them."""
    reached = []
    for workload, (config, mpki, instructions) in WORKLOADS.items():
        config = replace(config, timing=moved(config.timing, name))
        judge = oracle_for_config(config)
        if not any(
            v.rule.split("(")[0] in READERS[name]
            for v in judge.check(nominal(workload))
        ):
            continue
        reached.append(workload)
        problems = judge.check_messages(_run(config, mpki, instructions))
        assert not problems, (
            f"(b) {workload}: with {name} moved, the controller breaks "
            f"{len(problems)} rule(s), first: {problems[0]}"
        )
    assert reached, (
        f"(a) with {name} moved, no nominal stream breaks any of "
        f"{READERS[name]}"
    )


def test_every_field_has_a_move():
    names = {f.name for f in fields(TimingParams)}
    assert EXEMPT_FIELDS.keys() <= names
    assert names - EXEMPT_FIELDS.keys() == READERS.keys()


@pytest.mark.parametrize("name", sorted(READERS))
def test_both_layers_enforce(name):
    check_enforced(name)


def test_planted_controller_ignoring_trtp_fails(monkeypatch):
    for workload in WORKLOADS:
        nominal(workload)  # from the real controller
    init = MemoryController.__init__

    def planted(self, channel_id, config, engine):
        init(self, channel_id, config, engine)
        self.trtp_c = config.cycles(DDR4_2400.trtp)

    monkeypatch.setattr(MemoryController, "__init__", planted)
    with pytest.raises(AssertionError, match=r"^\(b\)"):
        check_enforced("trtp")


def test_planted_table_without_trtp_fails(monkeypatch):
    build = oracle.build_rule_table_cycles

    def planted(**kwargs):
        table = build(**kwargs)
        table.pair_rules = tuple(
            r for r in table.pair_rules if r.name != "tRTP"
        )
        return table

    monkeypatch.setattr(oracle, "build_rule_table_cycles", planted)
    with pytest.raises(AssertionError, match=r"^\(a\)"):
        check_enforced("trtp")
