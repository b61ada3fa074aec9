"""The event kernel equals a dense every-cycle loop, and the goldens.

The reference semantics of ``System.run`` is a dense loop that calls
every controller's ``schedule`` on every cycle.  The event kernel skips
a controller only until its ``schedule()``-proven ``_progress_at`` bound,
so its result must equal that loop's bit for bit.  :func:`dense_loop`
builds the dense loop from the production one, with no production knob:
it wraps ``MemoryController.schedule`` to forget the memo after every
call, so the loop visits and schedules every cycle.  On each cycle the
event kernel would have skipped, the wrapper also checks the memo
contract stated in ``MemoryController.schedule``: such a call must issue
nothing and mutate nothing.  The A/B runs on every golden config and on
a seeded randomized engine × granularity × channels/ranks × PARA matrix.

``tests/goldens/kernel_ab.json`` holds full ``result_to_dict`` dumps
across baseline/elastic/HiRA/PARA configurations, channel and rank
variants.  Refactors of the event kernel (cached core wake times, O(1)
queue predicates, vectorized trace generation) are pure performance
changes: every field — cycles, per-core IPCs, controller stats — must
survive them exactly.

If a future PR changes scheduler *behavior* on purpose, regenerate the
goldens (run this file with ``REPRO_REGEN_GOLDENS=1``) in the same
commit and say so in its message; a silent diff here is a regression.

``REPRO_REGEN_GOLDENS`` *never* rewrites entries carrying a ``pinned``
field.  The ``-zeroturn`` entries run with ``trtw = twtr = 0`` timing
overrides and ``refresh_granularity="all_bank"``.  They first held the
results of commit cb6b0c8's kernel, from before tRTW/tWTR gating and
REFsb existed.  That kernel let its event-skipping visit schedule decide
when a request deep in a queue could issue, so those values could not
survive the move to an exact kernel.  Each entry was re-pinned once, to
the output of the kernel that equals the dense loop.  What the old pins
stood for — zero turnaround really disables the turnaround gate — is
checked live by
:func:`test_zeroturn_traced_runs_record_no_turnaround_stall`.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import heapq
import json
import os
import random
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.engine import HiraRefreshEngine
from repro.dram.timing import timing_for_capacity
from repro.obs.tracer import SimTracer, attach_tracers, trace_json
from repro.orchestrator import result_to_dict
from repro.sim.audit import attach_auditors
from repro.sim.config import SystemConfig
from repro.sim.controller import (
    _ISSUED,
    BaselineRefreshEngine,
    MemoryController,
    NoRefreshEngine,
    RefreshEngine,
)
from repro.sim.elastic import ElasticRefreshEngine
from repro.sim.request import Request
from repro.sim.system import System
from repro.workloads.mixes import mix_for

GOLDEN_PATH = Path(__file__).parent / "goldens" / "kernel_ab.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())

AUDIT_GOLDEN_PATH = Path(__file__).parent / "goldens" / "kernel_audit_digests.json"
AUDIT_GOLDENS = (
    json.loads(AUDIT_GOLDEN_PATH.read_text()) if AUDIT_GOLDEN_PATH.exists() else {}
)


def build_system(entry: dict) -> System:
    config_data = dict(entry["config"])
    # Optional partial TimingParams override (e.g. {"trtw": 0, "twtr": 0}),
    # applied on top of the capacity-derived preset.
    timing_overrides = config_data.pop("timing", None)
    config = SystemConfig(**config_data)
    if timing_overrides:
        config = config.variant(
            timing=replace(config.timing, **timing_overrides)
        )
    profiles = mix_for(entry["mix_id"], cores=config.cores)
    return System(
        config, profiles, seed=entry["seed"], instr_budget=entry["instr_budget"]
    )


def run_entry(entry: dict) -> dict:
    return result_to_dict(build_system(entry).run())


#: The ``_progress_at`` the dense wrapper leaves after every call: no
#: bound to skip to, and unlike 0 not what an outside mutation writes.
_NO_BOUND = -1


class MemoContractError(AssertionError):
    """A call the event kernel would have skipped issued or mutated."""


def _scheduling_mode(mc: MemoryController) -> tuple:
    """The controller's scheduling mode: what a non-issuing call may
    change (write-drain priority, blocked ranks and banks), read apart
    from ``_epoch`` so a mutation that forgets to bump it still shows."""
    return (
        mc._draining_writes,
        frozenset(mc.blocked_ranks),
        frozenset(mc.blocked_banks),
    )


@contextmanager
def dense_loop():
    """Run ``System.run`` as the dense reference loop inside the block,
    checking the memo contract on every cycle the event kernel skips.

    After each ``schedule`` call the wrapper saves the bound the call
    proved and leaves ``_NO_BOUND`` in ``_progress_at``, so the loop has
    no bound to skip to: it visits every cycle and calls every
    controller's ``schedule`` on each one.  A call below the saved bound
    with ``_NO_BOUND`` still in place (no outside mutation reset it) is
    one the event kernel would have skipped: it must issue nothing and
    leave ``_epoch`` and the scheduling mode unchanged.  Such a call
    keeps the saved bound, as the event kernel would have kept it.
    """
    original = MemoryController.schedule
    proved: dict[MemoryController, int] = {}

    def schedule(self, now):
        bound = proved.get(self, _NO_BOUND)
        skipped = now < bound and self._progress_at == _NO_BOUND
        if skipped:
            epoch = self._epoch
            mode = _scheduling_mode(self)
        issued = original(self, now)
        if skipped:
            if issued or self._epoch != epoch or _scheduling_mode(self) != mode:
                raise MemoContractError(
                    f"channel {self.channel_id}, cycle {now}: schedule "
                    f"{'issued' if issued else 'mutated state'} below its "
                    f"memoized bound {bound}"
                )
        else:
            proved[self] = self._progress_at
        self._progress_at = _NO_BOUND
        return issued

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryController, "schedule", schedule)
        yield


def _contract_fires(plant, entry: dict) -> bool:
    """Whether the dense loop's contract check stops the planted run."""
    with plant(), dense_loop():
        try:
            run_entry(entry)
        except MemoContractError:
            return True
    return False


@functools.cache
def golden_run(name: str) -> dict:
    """Event-kernel result of one golden config (shared by two tests)."""
    return run_entry(GOLDENS[name])


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_kernel_matches_golden(name):
    entry = GOLDENS[name]
    result = golden_run(name)
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1" and "pinned" not in entry:
        GOLDENS[name]["result"] = result  # pragma: no cover
        GOLDEN_PATH.write_text(json.dumps(GOLDENS, indent=1, sort_keys=True))
        return
    golden = entry["result"]
    # Compare piecewise first so a mismatch names the field, then fully.
    for field in golden:
        assert result[field] == golden[field], f"{name}: {field} diverged"
    assert result == golden


def test_goldens_cover_every_engine():
    modes = {entry["config"].get("refresh_mode") for entry in GOLDENS.values()}
    assert modes >= {"none", "baseline", "elastic", "hira"}
    assert any(entry["config"].get("para_nrh") for entry in GOLDENS.values())
    assert any(entry["config"].get("channels", 1) > 1 for entry in GOLDENS.values())
    assert any(
        entry["config"].get("ranks_per_channel", 1) > 1 for entry in GOLDENS.values()
    )
    # Both refresh granularities are pinned, for every REF-owing engine.
    sb_modes = {
        entry["config"]["refresh_mode"]
        for entry in GOLDENS.values()
        if entry["config"].get("refresh_granularity") == "same_bank"
    }
    assert sb_modes >= {"baseline", "elastic", "hira"}


# ----------------------------------------------------------------------
# SoA A/B sweep: byte-identical audit logs across the full engine matrix.
#
# The kernel_ab goldens compare aggregate results (cycles, IPCs, stats);
# an array-indexing transposition in the struct-of-arrays hot path could
# in principle swap two banks' command streams without moving any
# aggregate.  These goldens pin a sha256 over every controller's full
# exported audit log — command kind, cycle, rank, bank, row, tag, in
# issue order — so the command *stream itself* must survive refactors
# byte for byte.  Seeds are drawn from a fixed generator: randomized
# coverage, deterministic test.
# ----------------------------------------------------------------------
def _audit_grid() -> dict[str, dict]:
    rng = random.Random(0xA0D17)
    grid = {}
    for mode in ("baseline", "elastic", "hira"):
        for granularity in ("all_bank", "same_bank"):
            for turnaround in (True, False):
                seed = rng.randrange(1, 1 << 16)
                name = (
                    f"{mode}-{granularity}-"
                    f"{'turn' if turnaround else 'noturn'}-s{seed}"
                )
                config: dict = {"refresh_mode": mode, "refresh_granularity": granularity}
                if mode == "hira":
                    config["tref_slack_acts"] = 2
                if rng.random() < 0.5:
                    config["para_nrh"] = float(rng.choice((64, 256)))
                if not turnaround:
                    config["timing"] = {"trtw": 0, "twtr": 0}
                grid[name] = {
                    "config": config,
                    "mix_id": rng.randrange(0, 3),
                    "seed": seed,
                    "instr_budget": 3000,
                }
    return grid


AUDIT_GRID = _audit_grid()


def _audit_digest(entry: dict) -> str:
    system = build_system(entry)
    auditors = attach_auditors(system)
    system.run()
    digest = hashlib.sha256()
    for auditor in auditors:
        log = auditor.export_log()
        digest.update(
            json.dumps(log, sort_keys=True, separators=(",", ":")).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(AUDIT_GRID))
def test_audit_log_matches_digest_golden(name):
    entry = AUDIT_GRID[name]
    digest = _audit_digest(entry)
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":  # pragma: no cover
        AUDIT_GOLDENS[name] = digest
        AUDIT_GOLDEN_PATH.write_text(
            json.dumps(AUDIT_GOLDENS, indent=1, sort_keys=True) + "\n"
        )
        return
    assert name in AUDIT_GOLDENS, (
        f"no audit digest recorded for {name}; regenerate with "
        "REPRO_REGEN_GOLDENS=1"
    )
    assert digest == AUDIT_GOLDENS[name], (
        f"{name}: audit log diverged from the recorded command stream"
    )


def test_audit_grid_covers_matrix():
    combos = {
        (e["config"]["refresh_mode"], e["config"]["refresh_granularity"],
         "timing" in e["config"])
        for e in AUDIT_GRID.values()
    }
    assert len(combos) == 12  # 3 engines x 2 granularities x turnaround on/off


def test_every_entry_has_a_pinned_zero_turnaround_twin():
    """Each live all-bank entry is shadowed by a pinned zero-turnaround twin.

    The twin differs from its sibling only by the ``trtw = twtr = 0``
    timing override (and an explicit all-bank granularity), and a
    regeneration never rewrites it, so the pair keeps the turnaround
    gate's effect on every recorded configuration in view.
    """
    live = {
        n
        for n, e in GOLDENS.items()
        if not n.endswith("-zeroturn")
        and e["config"].get("refresh_granularity", "all_bank") == "all_bank"
    }
    assert live, "no live golden entries"
    for name in live:
        twin = GOLDENS.get(name + "-zeroturn")
        assert twin is not None, f"{name} has no -zeroturn twin"
        assert "pinned" in twin, f"{name}-zeroturn must be pinned"
        assert twin["config"]["timing"] == {"trtw": 0, "twtr": 0}
        assert twin["config"]["refresh_granularity"] == "all_bank"
        stripped = {
            k: v
            for k, v in twin["config"].items()
            if k not in ("timing", "refresh_granularity")
        }
        assert stripped == GOLDENS[name]["config"]


def _turnaround_stalls(tracer) -> tuple[int, int]:
    """(direction-rule stalls, those waiting past the data bus alone).

    A stall charged to a direction-change rule (``tBL+tRTW`` or
    ``tBL+tWTR``) waits on the previous burst.  Its turnaround is how
    far its release lies past that burst's tBL occupancy; the rule still
    exists with ``trtw = 0``, so only this wait says whether the
    turnaround gate bound.
    """
    mc = tracer.mc
    bursts = [
        (r.cycle, r.cycle + (mc.tcwl_c if r.kind == "WR" else mc.tcl_c))
        for r in tracer.auditor.records
        if r.kind in ("RD", "WR")
    ]
    issued = [cycle for cycle, __ in bursts]
    direction = late = 0
    for cycle, __, cat, args in tracer._events:
        if cat != "stall" or not args["reason"].endswith("@data-bus-direction"):
            continue
        direction += 1
        curr = args["reason"].split("->")[1].split(")")[0]
        prev_start = bursts[bisect.bisect_left(issued, cycle) - 1][1]
        start = args["until"] + (mc.tcwl_c if curr == "WR" else mc.tcl_c)
        late += start - prev_start > mc.tbl_c
    return direction, late


def test_zeroturn_traced_runs_record_no_turnaround_stall():
    """With ``trtw = twtr = 0`` the turnaround gate never binds.

    Every pinned ``-zeroturn`` config runs traced (short budget).  Its
    direction-rule stalls (the rules still exist, with delay tBL) must
    all release exactly when the previous burst's tBL ends: none waits
    out a turnaround.  Its live sibling, with turnaround on, must record
    some that do, or the check would be vacuous.
    """
    turnaround = {}
    for name, entry in sorted(GOLDENS.items()):
        if "pinned" not in entry:
            continue
        for twin in (name, name.removesuffix("-zeroturn")):
            system = build_system({**GOLDENS[twin], "instr_budget": 2000})
            tracers = attach_tracers(system)
            system.run()
            counts = [_turnaround_stalls(t) for t in tracers]
            turnaround[twin] = tuple(map(sum, zip(*counts)))
    assert turnaround, "no pinned -zeroturn entries"
    for name, (direction, late) in turnaround.items():
        if name.endswith("-zeroturn"):
            assert direction > 0, f"{name}: no direction-rule stall to judge"
            assert late == 0, f"{name}: {late} turnaround stalls"
        else:
            assert late > 0, f"{name}: turnaround never stalled"


# ----------------------------------------------------------------------
# Dense A/B: the event kernel against the every-cycle reference loop.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_event_kernel_matches_dense_loop_on_golden(name):
    with dense_loop():
        dense = run_entry(GOLDENS[name])
    assert golden_run(name) == dense


# Traced runs skip the same cycles; the tracer charges the skipped ones
# (``SimTracer.flush``) exactly as the dense loop stalls on each.
def _traced_exports(entry: dict) -> list[str]:
    """Canonical trace exports, per channel, of one short traced run."""
    system = build_system({**entry, "instr_budget": 2000})
    tracers = attach_tracers(system)
    system.run()
    return [trace_json(t.export()) for t in tracers]


@contextmanager
def unsplit_stall_span():
    """Plant a tracer that does not split a skipped span at the heads'
    ``until``: it charges every skipped cycle to the visit's winner."""

    def flush(self, end):
        heads, start = self._heads, self._pending_from
        if heads is None:
            return
        self._heads = None
        until, reason, rank, bank = self._first_release(heads, start - 1)
        moving = until == start
        for cycle in range(start, end):
            self._stall(cycle, cycle + 1 if moving else until, reason, rank, bank)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimTracer, "flush", flush)
        yield


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_traced_run_matches_dense_trace_on_golden(name):
    """A traced run skips cycles like an untraced one; the stalls the
    tracer charges to them equal the dense loop's, byte for byte."""
    with dense_loop():
        dense = _traced_exports(GOLDENS[name])
    assert _traced_exports(GOLDENS[name]) == dense


def test_dense_trace_catches_unsplit_stall_span():
    """Charging a whole skipped span to the visit's winner must show on
    every golden: the first release changes inside spans everywhere."""
    missed = []
    for name, entry in sorted(GOLDENS.items()):
        with dense_loop():
            dense = _traced_exports(entry)
        with unsplit_stall_span():
            if _traced_exports(entry) == dense:
                missed.append(name)
    assert not missed, f"unsplit stall span went unnoticed on {missed}"


def _dense_grid() -> dict[str, dict]:
    """Seeded randomized engine × granularity × channels/ranks × PARA.

    Budgets are short, so tREFI is cut to a sixth (8 Gbit, where tRFC
    still takes under a third of it): every baseline and HiRA run then
    crosses at least one refresh window.
    """
    rng = random.Random(0xDE45E)
    trefi = timing_for_capacity(8.0).trefi // 6
    grid = {}
    for mode in ("none", "baseline", "elastic", "hira"):
        for granularity in ("all_bank", "same_bank"):
            for channels, ranks in ((1, 1), (2, 1), (1, 2)):
                for para in (False, True):
                    timing = {"trefi": trefi}
                    if rng.random() < 0.5:
                        timing.update(trtw=0, twtr=0)
                    config: dict = {
                        "refresh_mode": mode,
                        "refresh_granularity": granularity,
                        "channels": channels,
                        "ranks_per_channel": ranks,
                        "timing": timing,
                    }
                    if mode == "hira":
                        config["tref_slack_acts"] = rng.choice((1, 2, 4))
                    if para:
                        config["para_nrh"] = float(rng.choice((64, 128, 256)))
                    seed = rng.randrange(1, 1 << 16)
                    name = (
                        f"{mode}-{granularity}-{channels}ch{ranks}r-"
                        f"{'para' if para else 'nopara'}-s{seed}"
                    )
                    grid[name] = {
                        "config": config,
                        "mix_id": rng.randrange(0, 4),
                        "seed": seed,
                        "instr_budget": 3000,
                    }
    return grid


DENSE_GRID = _dense_grid()


@pytest.mark.parametrize("name", sorted(DENSE_GRID))
def test_event_kernel_matches_dense_loop_on_random_matrix(name):
    entry = DENSE_GRID[name]
    event = run_entry(entry)
    with dense_loop():
        dense = run_entry(entry)
    assert event == dense


def test_dense_grid_covers_matrix():
    combos = {
        (
            e["config"]["refresh_mode"],
            e["config"]["refresh_granularity"],
            e["config"]["channels"],
            e["config"]["ranks_per_channel"],
            "para_nrh" in e["config"],
        )
        for e in DENSE_GRID.values()
    }
    assert len(combos) == 4 * 2 * 3 * 2


# ----------------------------------------------------------------------
# The per-bank FCFS head index mirrors the queue lists exactly.
# ----------------------------------------------------------------------
def _check_head_index(mc: MemoryController) -> None:
    """Each queue's index is that queue grouped by bank, in arrival
    order, and ``demand_waiting`` agrees with the index."""
    waiting = set()
    for queue, bank_q in ((mc.read_q, mc._bank_q_read), (mc.write_q, mc._bank_q_write)):
        grouped: dict[int, list[Request]] = {}
        for req in queue:
            grouped.setdefault(req.gbank, []).append(req)
        assert {g: list(dq) for g, dq in bank_q.items()} == grouped
        waiting |= grouped.keys()
    bpr = mc.banks_per_rank
    for g in range(mc.config.ranks_per_channel * bpr):
        assert mc.demand_waiting(g // bpr, g % bpr) == (g in waiting)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_bank_head_index_matches_queues(name):
    original = MemoryController.schedule
    calls = 0

    def schedule(self, now):
        nonlocal calls
        issued = original(self, now)
        _check_head_index(self)
        calls += 1
        return issued

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryController, "schedule", schedule)
        run_entry({**GOLDENS[name], "instr_budget": 2000})
    assert calls


# ----------------------------------------------------------------------
# Engine wakes: ``urgent`` returns ``_ISSUED`` or its exact wake.
#
# The dense loop's contract check is what the engine fold rests on; the
# test below proves it fires.  The parametrized states pin each engine's
# wake formula on a hand-built frozen state: the returned cycle is the
# gate a dense loop would next find open, and a call that issues
# nothing leaves ``_epoch`` alone (so ``schedule`` may trust the value).
# ----------------------------------------------------------------------
ENGINE_CLASSES = (
    RefreshEngine,
    BaselineRefreshEngine,
    ElasticRefreshEngine,
    HiraRefreshEngine,
)


@contextmanager
def late_engine_wake():
    """Plant a late wake: every engine's non-issuing ``urgent`` reports
    one cycle after its real wake."""
    with pytest.MonkeyPatch.context() as mp:
        for cls in ENGINE_CLASSES:
            original = cls.__dict__.get("urgent")
            if original is None:
                continue

            def urgent(self, now, _original=original):
                wake = _original(self, now)
                return wake if wake == _ISSUED else wake + 1

            mp.setattr(cls, "urgent", urgent)
        yield


def test_dense_loop_catches_late_engine_wake():
    """A one-cycle-late engine wake must break the memo contract on every
    engine-bearing run.

    Engine-bearing: a refresh mode with REF work, or PARA's preventive
    refreshes.  The late bound covers the cycle the engine really acts
    on; the dense loop still visits it and stops there.
    """
    engine_bearing = {
        name: entry
        for name, entry in DENSE_GRID.items()
        if entry["config"]["refresh_mode"] != "none" or "para_nrh" in entry["config"]
    }
    assert len(engine_bearing) == 42
    unnoticed = [
        name
        for name, entry in sorted(engine_bearing.items())
        if not _contract_fires(late_engine_wake, entry)
    ]
    assert not unnoticed, f"late engine wake went unnoticed on {unnoticed}"


# ----------------------------------------------------------------------
# The memo contract: ``dense_loop`` catches a planted break of each rule.
# ----------------------------------------------------------------------
@contextmanager
def enqueue_keeps_memo():
    """Break rule 3: ``enqueue`` restores the memo it should reset."""
    original = MemoryController.enqueue

    def enqueue(self, req):
        memo = self._progress_at
        accepted = original(self, req)
        self._progress_at = memo
        return accepted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryController, "enqueue", enqueue)
        yield


@contextmanager
def silent_drain_flip():
    """Break rule 2: a write-drain priority flip leaves ``_epoch`` alone."""
    original = MemoryController._active_queues

    def _active_queues(self):
        epoch = self._epoch
        queues = original(self)
        self._epoch = epoch
        return queues

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryController, "_active_queues", _active_queues)
        yield


@pytest.mark.parametrize(
    "plant,everywhere",
    [(enqueue_keeps_memo, True), (silent_drain_flip, False)],
    ids=["enqueue-keeps-memo", "silent-drain-flip"],
)
def test_memo_contract_catches_planted_mutation(plant, everywhere):
    """A dropped reset (rule 3) must fire on every dense-matrix config;
    a silent flip (rule 2), which no result A/B sees, on at least one."""
    names = sorted(DENSE_GRID)
    if everywhere:
        missed = [n for n in names if not _contract_fires(plant, DENSE_GRID[n])]
        assert not missed, f"planted mutation went unnoticed on {missed}"
    else:
        assert any(_contract_fires(plant, DENSE_GRID[n]) for n in names)


# ----------------------------------------------------------------------
# The bound rule: the demand scans may skip only what the wake ``schedule``
# has folded so far rules out.
# ----------------------------------------------------------------------
@contextmanager
def planted_bound(shift):
    """Hand ``_schedule_queues`` ``shift(bound, now)`` instead of the wake
    ``schedule`` folded, while ``schedule`` still folds its reply against
    the true one."""
    original = MemoryController._schedule_queues

    def _schedule_queues(self, queue_a, queue_b, now, bound):
        return original(self, queue_a, queue_b, now, shift(bound, now))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryController, "_schedule_queues", _schedule_queues)
        yield


def test_dense_loop_catches_planted_bound():
    """A bound below the real one lets the scans skip a head that opens
    before the wake ``schedule`` records, so the memo comes out late.

    One cycle low, only a head whose own timer falls exactly on that
    cycle is skipped wrongly, so not every config shows it;
    ``min(bound, now)`` skips every head not yet open and must show on
    all of them.
    """
    names = sorted(DENSE_GRID)
    one_low = functools.partial(planted_bound, lambda bound, now: bound - 1)
    caught = [n for n in names if _contract_fires(one_low, DENSE_GRID[n])]
    assert len(caught) >= len(names) // 2, f"bound - 1 caught only on {caught}"
    at_now = functools.partial(planted_bound, min)
    missed = [n for n in names if not _contract_fires(at_now, DENSE_GRID[n])]
    assert not missed, f"min(bound, now) went unnoticed on {missed}"


def _mc(engine: RefreshEngine, **overrides) -> MemoryController:
    mc = MemoryController(0, SystemConfig(**overrides), engine)
    engine.para = None
    return mc


def _read(rank: int, bank: int, row: int) -> Request:
    return Request(
        is_write=False, core_id=0, arrival_cycle=0,
        rank=rank, bank=bank, row=row,
    )


def _overflow_preventive():
    """Base engine: the overflow queue folds each entry's PRE/ACT gate."""
    mc = _mc(NoRefreshEngine(), refresh_mode="none")
    mc.issue_act(0, 0, 5, 0)  # bank 0 open: its PRE waits for tRAS
    mc._ta.next_act[1] = 500  # bank 1 closed: its ACT waits here
    mc.mark_dirty()
    mc.engine._queue_preventive(0, 0, 9, 0)
    mc.engine._queue_preventive(0, 1, 9, 0)
    return mc, 1, min(mc._ta.next_pre[0], mc.act_allowed_at(0, 1))


def _baseline_drain(bank_open: bool):
    """Baseline all-bank: an engaged rank waits on its drain step."""
    mc = _mc(BaselineRefreshEngine(), refresh_mode="baseline")
    mc.issue_act(0, 0, 5, 0)
    now = 2
    if not bank_open:
        now = mc.tras_c
        mc.issue_pre(0, 0, now)
        now += 1
    mc._ta.ref_due[0] = 1
    mc.blocked_ranks.add(0)  # engaged by an earlier call
    mc.mark_dirty()
    expected = mc._ta.next_pre[0] if bank_open else mc._ta.ref_ready[0]
    return mc, now, expected


def _same_bank_drain(next_act: int, next_refsb: int):
    """Same-bank: a draining, precharged bank waits on tRP/tRFC_sb
    (``next_act``) and the rank's REFsb spacing (``next_refsb``)."""
    engine = BaselineRefreshEngine()
    mc = _mc(engine, refresh_mode="baseline", refresh_granularity="same_bank")
    engine._sb_heap = [entry for entry in engine._sb_heap if entry[1:] != (0, 0)]
    heapq.heapify(engine._sb_heap)
    engine._sb_draining.add((0, 0))
    mc.blocked_banks.add((0, 0))
    mc._ta.next_act[0] = next_act
    mc._ta.next_refsb[0] = next_refsb
    mc.mark_dirty()
    return mc, 0, min(max(next_act, next_refsb), engine._sb_heap[0][0])


def _elastic_engage():
    """Elastic: with a read queued, REF engages when the debt budget
    runs out, ``ref_due + (max_postponed - debt) * tREFI``."""
    engine = ElasticRefreshEngine(max_postponed=8)
    mc = _mc(engine, refresh_mode="elastic")
    mc._ta.ref_due[0] = 10
    engine._debt[0] = 3
    mc.mark_dirty()
    assert mc.enqueue(_read(0, 1, 7))
    return mc, 20, 10 + (8 - 3) * mc.trefi_c


def _hira(now: int, slack_acts: int = 2):
    engine = HiraRefreshEngine(tref_slack_acts=slack_acts)
    mc = _mc(engine, refresh_mode="hira", tref_slack_acts=slack_acts)
    engine._gen_heap[:] = [(now + 10**6, 0, 3)]  # generation far away
    return mc, engine


def _hira_due(bank_open: bool):
    """HiRA due scan: a bank within tRC of its deadline waits on its PRE
    (open) or ACT gates (closed)."""
    now = 1000
    mc, engine = _hira(now)
    engine._periodic[(0, 0)].pending.append(now - engine.slack_c)  # due now
    engine._active.add((0, 0))
    if bank_open:
        mc.issue_act(0, 0, 5, now - 2)
        expected = mc._ta.next_pre[0]
    else:
        mc._ta.next_act[0] = now + 50
        mc.mark_dirty()
        expected = mc.act_allowed_at(0, 0)
    return mc, now, expected


def _hira_not_yet_due():
    """HiRA: the scan first acts when the earliest deadline is tRC away."""
    now = 1000
    mc, engine = _hira(now)
    deadline = now + 3 * mc.trc_c
    engine._periodic[(0, 1)].pending.append(deadline - engine.slack_c)
    engine._active.add((0, 1))
    return mc, now, deadline - mc.trc_c


WAKE_STATES = {
    "overflow-preventive": _overflow_preventive,
    "baseline-drain-open-bank": functools.partial(_baseline_drain, True),
    "baseline-drain-closed-bank": functools.partial(_baseline_drain, False),
    "same-bank-drain-next-act": functools.partial(_same_bank_drain, 300, 200),
    "same-bank-drain-next-refsb": functools.partial(_same_bank_drain, 200, 300),
    "elastic-engage-read-queued": _elastic_engage,
    "hira-due-open-bank": functools.partial(_hira_due, True),
    "hira-due-closed-bank": functools.partial(_hira_due, False),
    "hira-not-yet-due": _hira_not_yet_due,
}


@pytest.mark.parametrize("state", sorted(WAKE_STATES))
def test_urgent_returns_exact_wake(state):
    mc, now, expected = WAKE_STATES[state]()
    assert expected > now
    epoch = mc._epoch
    assert mc.engine.urgent(now) == expected
    assert mc._epoch == epoch, "a non-issuing urgent call mutated state"


def test_hira0_wakes_at_the_generation_cycle():
    """HiRA-0's next work is the generation pop itself, not ``gen - tRC``.

    With zero slack a generated request is due on arrival, but it only
    exists once the generation cycle ``G`` pops it: ``schedule`` must
    memoize ``G``, not the earlier ``G - tRC`` a deadline formula gives.
    """
    generation = 1000
    mc, engine = _hira(0, slack_acts=0)
    engine._gen_heap[:] = [(generation, 0, 0)]
    assert not mc.schedule(0)
    assert mc._progress_at == generation
