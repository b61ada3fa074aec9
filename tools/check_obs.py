"""CI gate for the observability layer (``src/repro/obs``).

Four passes, the last a planted mutation, so the gate cannot rot into
a vacuous green check:

1. **Traced pass** — armed runs across refresh modes must export valid
   Chrome trace-event JSON whose aggregate counters reproduce the
   ``ControllerStats`` identities (the compound command names come from
   the auditor records' tags), and whose rule-named stalls are tight
   under the oracle's judging path: replaying the commands issued
   before the stall, the stalled command at ``until`` breaks no pair,
   window or bus rule, and at ``until - 1`` breaks the named one.
2. **Disarmed A/B** — the same seeded run with and without tracers must
   produce bit-identical results (the tracer is pure observation).
3. **Determinism** — two independent armed runs must export
   byte-identical trace files.
4. **Vacuousness guard** — a planted mis-attribution (the oracle's
   ``earliest`` naming the loosest rule instead of the binding one, in
   a copied tree) must make the traced pass fail.

Usage::

    python tools/check_obs.py               # all four passes
    python tools/check_obs.py --traced-only # passes 1-3 (the mutation
                                            # guard re-runs this mode
                                            # against the mutated tree)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# Appended (not prepended) so a PYTHONPATH pointing at a mutated tree
# wins: the vacuousness guard relies on that to re-run this script
# against the planted mutation.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Armed-run configurations: one per refresh engine family, including a
#: same-bank granularity so REFSB and the per-bank stall reasons engage.
CONFIGS = (
    ("baseline", dict(refresh_mode="baseline")),
    ("elastic-sb", dict(refresh_mode="elastic", refresh_granularity="same_bank")),
    ("hira2", dict(refresh_mode="hira", tref_slack_acts=2, para_nrh=64.0)),
)

INSTR_BUDGET = 6_000
SEED = 7
#: Rule-named stalls judged per channel (evenly spaced; each costs two
#: trial replays).
STALLS_JUDGED = 500


def _run_system(overrides: dict, *, trace: bool):
    from repro.obs.tracer import attach_tracers
    from repro.sim.config import SystemConfig
    from repro.sim.system import System
    from repro.workloads.mixes import mix_for

    config = SystemConfig(**overrides)
    system = System(
        config, mix_for(0, cores=config.cores), seed=SEED,
        instr_budget=INSTR_BUDGET,
    )
    tracers = attach_tracers(system) if trace else []
    return tracers, system.run()


def _check_identities(label, tracer, stats) -> list[str]:
    """Never-dropped aggregate counters must reproduce ControllerStats."""
    n = tracer.command_counts
    problems = []
    checks = (
        ("acts",
         n["ACT"] + 2 * n["HIRA_ACT"] + 2 * n["HIRA_PAIR"] + n["SOLO_REF"],
         stats.acts),
        ("pres",
         n["PRE"] + n["HIRA_ACT"] + 2 * n["HIRA_PAIR"] + n["SOLO_REF"],
         stats.pres),
        ("refs", n["REF"], stats.refs),
        ("refs_sb", n["REFSB"], stats.refs_sb),
        ("reads_served", n["RD"], stats.reads_served),
        ("writes_served", n["WR"], stats.writes_served),
        ("solo_refreshes", n["SOLO_REF"], stats.solo_refreshes),
        ("hira_access_parallelized", n["HIRA_ACT"],
         stats.hira_access_parallelized),
        ("hira_refresh_parallelized", n["HIRA_PAIR"],
         stats.hira_refresh_parallelized),
    )
    for name, traced, actual in checks:
        if traced != actual:
            problems.append(
                f"{label}: identity {name}: trace says {traced}, "
                f"ControllerStats says {actual}"
            )
    return problems


def _check_stall_bounds(label, tracer) -> tuple[list[str], int]:
    """Rule-named stalls must be tight under the oracle's judging path.

    A fresh replay is fed the auditor's records up to each stall (every
    primitive issued before it, held records included); a forked trial
    then feeds the stalled command.  Judges up to :data:`STALLS_JUDGED`
    stalls, evenly spaced; returns the problems and the number judged.
    """
    from repro.obs.tracer import TIMING_REASONS
    from repro.sim.audit import CommandRecord
    from repro.sim.oracle import AHEAD_TAGS, oracle_for_config

    rules = set(TIMING_REASONS)
    records = tracer.auditor.records
    replay = oracle_for_config(tracer.mc.config)
    stalls = [
        (cycle, args) for cycle, __, cat, args in tracer._events
        if cat == "stall" and args["reason"] in rules
    ]
    problems: list[str] = []
    fed = judged = 0
    for cycle, args in stalls[:: max(1, len(stalls) // STALLS_JUDGED)]:
        while fed < len(records) and (
            records[fed].tag in AHEAD_TAGS or records[fed].cycle < cycle
        ):
            replay.feed(records[fed])
            fed += 1
        reason, until = args["reason"], args["until"]
        kind = reason.split("(")[1].split(")")[0].split("->")[-1]

        def broken(at: int) -> set[str]:
            trial = replay.fork()
            probe = CommandRecord(at, kind, args["rank"], args["bank"])
            trial.feed(probe)
            return {
                v.rule for v in trial.finish()
                if v.curr is probe and v.rule in rules
            }

        judged += 1
        late, early = broken(until), broken(until - 1)
        if late or reason not in early:
            problems.append(
                f"{label}: stall@{cycle} names {reason} until {until} "
                f"(r{args['rank']}b{args['bank']}), but the oracle judges "
                f"{kind}@{until} breaking {sorted(late)} and "
                f"{kind}@{until - 1} breaking {sorted(early)}"
            )
    return problems, judged


def check_traced() -> int:
    from repro.obs.tracer import trace_json, validate_chrome_trace

    failures = 0
    for label, overrides in CONFIGS:
        tracers, result = _run_system(overrides, trace=True)
        problems: list[str] = []
        stall_total = judged = 0
        for tracer, stats in zip(tracers, result.controller_stats):
            payload = tracer.export()
            problems += [
                f"{label}: schema: {p}" for p in validate_chrome_trace(payload)
            ]
            json.loads(trace_json(payload))  # canonical form round-trips
            problems += _check_identities(label, tracer, stats)
            bound_problems, n = _check_stall_bounds(label, tracer)
            problems += bound_problems
            judged += n
            stall_total += sum(tracer.stall_counts.values())
            if tracer.events_total == 0:
                problems.append(f"{label}: tracer recorded no events")
        if stall_total == 0 or judged == 0:
            problems.append(f"{label}: no rule-named stalls (vacuous run?)")
        if problems:
            failures += 1
            print(f"traced pass [{label}]: FAIL")
            for p in problems[:20]:
                print(f"  {p}")
        else:
            events = sum(t.events_total for t in tracers)
            print(f"traced pass [{label}]: ok ({events} events, "
                  f"{stall_total} stalls attributed, {judged} judged tight)")
    return failures


def check_disarmed_ab() -> int:
    from repro.orchestrator import result_to_dict

    failures = 0
    for label, overrides in CONFIGS:
        __, armed = _run_system(overrides, trace=True)
        __, plain = _run_system(overrides, trace=False)
        a = json.dumps(result_to_dict(armed), sort_keys=True)
        b = json.dumps(result_to_dict(plain), sort_keys=True)
        if a == b:
            print(f"disarmed A/B [{label}]: ok (bit-identical results)")
        else:
            failures += 1
            print(f"disarmed A/B [{label}]: FAIL — tracing changed the result")
    return failures


def check_determinism() -> int:
    from repro.obs.tracer import trace_json

    failures = 0
    for label, overrides in CONFIGS:
        exports = []
        for __ in range(2):
            tracers, __ = _run_system(overrides, trace=True)
            exports.append([trace_json(t.export()) for t in tracers])
        if exports[0] == exports[1]:
            print(f"determinism [{label}]: ok (byte-identical re-run)")
        else:
            failures += 1
            print(f"determinism [{label}]: FAIL — trace export not "
                  "reproducible")
    return failures


def check_mutation() -> int:
    """Plant a mis-attribution: ``earliest`` names the loosest rule
    instead of the binding one.  The traced pass must fail."""
    binding = "return max(bounds, key=itemgetter(0)"
    with tempfile.TemporaryDirectory(prefix="obsmut-") as tmp:
        tree = Path(tmp) / "repro"
        shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
        path = tree / "sim" / "oracle.py"
        text = path.read_text(encoding="utf-8")
        if binding not in text:
            print("mutation pass: FAIL — earliest's binding-rule pick not "
                  "found to plant")
            return 1
        path.write_text(
            text.replace(binding, "return min(bounds, key=itemgetter(0)", 1),
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=tmp)
        proc = subprocess.run(
            [sys.executable, __file__, "--traced-only"],
            env=env, capture_output=True, text=True,
        )
    if proc.returncode != 0 and "but the oracle judges" in proc.stdout:
        print("mutation pass: ok (planted mis-attribution detected)")
        return 0
    print("mutation pass: FAIL — traced pass did not notice the planted "
          "mutation:")
    print(proc.stdout + proc.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traced-only", action="store_true",
                        help="run passes 1-3 only (used by the mutation "
                             "guard against a planted tree)")
    args = parser.parse_args(argv)

    failures = check_traced()
    failures += check_disarmed_ab()
    failures += check_determinism()
    if not args.traced_only:
        failures += check_mutation()
    if failures:
        print(f"FAIL: {failures} observability problem(s)")
        return 1
    print("OK: traces validate, disarmed runs are bit-identical, exports "
          "are deterministic")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
