"""CI differential gate: controller issue gates vs the rule-table oracle.

Runs the property-suite matrix (three refresh engines × two granularities,
plus the no-refresh engine) under fuzzed trace mixes.  The controller's
issue gates produce each command stream and a :class:`CommandAuditor`
records it; the declarative oracle, which shares no code with the
controller, must find every stream clean — any violation it reports is a
disagreement between the two timing derivations and fails the job.  A
planted mutation pass then shifts one command per stream into an illegal
position and requires the oracle to flag it, which guards against a
vacuously permissive rule table.

Usage::

    python tools/check_oracle.py                 # run matrix + planted pass
    python tools/check_oracle.py --export DIR    # also write audit logs
    python tools/check_oracle.py --logs DIR      # replay exported logs only

``--logs`` re-checks previously exported logs through the cycle-domain
rule-table builder alone (no simulator run), which is how an external
consumer of the interchange format would use it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.audit import CommandRecord, attach_auditors, records_from_log
from repro.sim.config import SystemConfig
from repro.sim.oracle import TimingOracle, oracle_for_config, table_for_log
from repro.sim.system import System
from repro.sim.trace import TraceProfile

MATRIX = [
    ("none", "all_bank"),
    ("baseline", "all_bank"),
    ("baseline", "same_bank"),
    ("elastic", "all_bank"),
    ("elastic", "same_bank"),
    ("hira", "all_bank"),
    ("hira", "same_bank"),
]
SEEDS = (7, 23)


def _run(mode: str, granularity: str, seed: int):
    config = SystemConfig(
        refresh_mode=mode, refresh_granularity=granularity, cores=2
    )
    profiles = [
        TraceProfile(
            f"ci{seed}-{i}", mpki=25.0, row_locality=0.5, read_fraction=0.6,
            working_set_rows=2048,
        )
        for i in range(2)
    ]
    system = System(config, profiles, seed=seed, instr_budget=2_500)
    auditors = attach_auditors(system)
    result = system.run(max_cycles=2_000_000)
    assert result.finished, f"{mode}/{granularity} seed {seed} did not finish"
    return config, auditors


def _planted_mutation(auditor, oracle) -> list[str]:
    """Shift one ACT into its predecessor's tRC shadow; the oracle must
    flag it."""
    acts = [
        (i, r) for i, r in enumerate(auditor.records)
        if r.kind == "ACT" and r.tag == "demand"
    ]
    trc_c = auditor.mc.trc_c
    by_bank: dict[tuple, CommandRecord] = {}
    for index, rec in acts:
        key = (rec.rank, rec.bank)
        prev = by_bank.get(key)
        if prev is not None and rec.cycle - prev.cycle >= trc_c:
            mutated = list(auditor.records)
            mutated[index] = CommandRecord(
                prev.cycle + trc_c - 1, "ACT", rec.rank, rec.bank,
                rec.row, rec.tag,
            )
            if not any("tRC" in v.rule for v in oracle.check(mutated)):
                return ["oracle missed the planted tRC shift"]
            return []
        by_bank[key] = rec
    return []  # stream too short to host a mutation — not a failure


def check_matrix(export_dir: Path | None) -> int:
    failures = 0
    planted_checked = 0
    for mode, granularity in MATRIX:
        for seed in SEEDS:
            config, auditors = _run(mode, granularity, seed)
            oracle = oracle_for_config(config)
            for channel, auditor in enumerate(auditors):
                oracle_v = oracle.check_messages(auditor.records)
                tag = f"{mode}/{granularity} seed={seed} ch={channel}"
                status = "ok"
                if oracle_v:
                    failures += 1
                    status = f"FAIL (oracle {len(oracle_v)})"
                    for problem in oracle_v[:5]:
                        print(f"  oracle: {problem}")
                planted = _planted_mutation(auditor, oracle)
                if planted:
                    failures += 1
                    status += " " + "; ".join(planted)
                elif auditor.records:
                    planted_checked += 1
                print(f"{tag}: {len(auditor.records)} commands, {status}")
                if export_dir is not None:
                    export_dir.mkdir(parents=True, exist_ok=True)
                    path = export_dir / (
                        f"{mode}-{granularity}-s{seed}-ch{channel}.json"
                    )
                    path.write_text(json.dumps(auditor.export_log()) + "\n")
    print(f"planted-mutation pass: {planted_checked} streams checked")
    return failures


def check_logs(log_dir: Path) -> int:
    failures = 0
    paths = sorted(log_dir.glob("*.json"))
    if not paths:
        print(f"no logs found in {log_dir}")
        return 1
    for path in paths:
        payload = json.loads(path.read_text())
        oracle = TimingOracle(table_for_log(payload))
        violations = oracle.check_messages(records_from_log(payload))
        status = "ok" if not violations else f"FAIL ({len(violations)})"
        print(f"{path.name}: {len(payload['records'])} commands, {status}")
        for problem in violations[:5]:
            print(f"  oracle: {problem}")
        failures += bool(violations)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--export", default=None,
                        help="directory to write audit logs (interchange JSON)")
    parser.add_argument("--logs", default=None,
                        help="replay previously exported logs instead of "
                             "running the simulation matrix")
    args = parser.parse_args(argv)

    if args.logs is not None:
        failures = check_logs(Path(args.logs))
    else:
        failures = check_matrix(Path(args.export) if args.export else None)
    if failures:
        print(f"FAIL: {failures} disagreement(s)")
        return 1
    print("OK: controller gates and oracle agree on every stream")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
