"""The event kernel equals a dense every-cycle loop, and the goldens.

The reference semantics of ``System.run`` is a dense loop that calls
every controller's ``schedule`` on every cycle.  The event kernel skips
a controller only until its ``schedule()``-proven ``_progress_at`` bound,
so its result must equal that loop's bit for bit.  :func:`dense_loop`
builds the dense loop from the production one, with no production knob:
it wraps ``MemoryController.schedule`` to forget the memo after every
call, so the loop visits and schedules every cycle.  The A/B runs on
every golden config and on a seeded randomized engine × granularity ×
channels/ranks × PARA matrix.

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

import functools
import hashlib
import json
import os
import random
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from repro.dram.timing import timing_for_capacity
from repro.obs.tracer import attach_tracers
from repro.orchestrator import result_to_dict
from repro.sim.audit import attach_auditors
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
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


@contextmanager
def dense_loop():
    """Run ``System.run`` as the dense reference loop inside the block.

    Resetting ``_progress_at`` after every ``schedule`` call leaves the
    loop no bound to skip to, so it visits every cycle and calls every
    controller's ``schedule`` on each one.
    """
    original = MemoryController.schedule

    def schedule(self, now):
        issued = original(self, now)
        self._progress_at = 0
        return issued

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryController, "schedule", schedule)
        yield


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


def test_zeroturn_traced_runs_record_no_turnaround_stall():
    """With ``trtw = twtr = 0`` the turnaround gate never binds.

    Every pinned ``-zeroturn`` config runs traced (short budget): no
    stall may be attributed to a tRTW/tWTR direction change.  Its live
    sibling, with turnaround on, must record some, or the check would be
    vacuous.
    """
    turnaround = {}
    for name, entry in sorted(GOLDENS.items()):
        if "pinned" not in entry:
            continue
        for twin in (name, name.removesuffix("-zeroturn")):
            system = build_system({**GOLDENS[twin], "instr_budget": 2000})
            tracers = attach_tracers(system)
            system.run()
            turnaround[twin] = sum(t.stall_counts["turnaround"] for t in tracers)
    assert turnaround, "no pinned -zeroturn entries"
    for name, stalls in turnaround.items():
        if name.endswith("-zeroturn"):
            assert stalls == 0, f"{name}: {stalls} turnaround stalls"
        else:
            assert stalls > 0, f"{name}: turnaround never stalled"


# ----------------------------------------------------------------------
# Dense A/B: the event kernel against the every-cycle reference loop.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_event_kernel_matches_dense_loop_on_golden(name):
    with dense_loop():
        dense = run_entry(GOLDENS[name])
    assert golden_run(name) == dense


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
