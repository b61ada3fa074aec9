"""Command-line entry points for the reproduction.

Eight subcommands mirror the repository's main workflows:

- ``characterize`` — run the §4 experiments on a tested module.
- ``simulate`` — one cycle-level run of a refresh configuration.
- ``audit`` — run one configuration with command auditors attached and
  re-verify the recorded stream against the rule-table timing oracle.
- ``sweep`` — an orchestrated parameter-grid sweep (parallel + cached,
  with pluggable execution backends; a re-run computes only the points
  missing from the result store).
- ``worker`` — a sweep-execution worker daemon for ``--backend socket``.
- ``status`` — render the live fleet status file and per-sweep store progress.
- ``security`` — print PARA's (revisited) configuration for a threshold.
- ``perf`` — measure kernel throughput and write ``BENCH_kernel.json``.

Usage::

    python -m repro.cli characterize --module C0
    python -m repro.cli simulate --capacity 128 --mode hira --slack 2
    python -m repro.cli audit --mode hira --granularity same_bank
    python -m repro.cli sweep --modes baseline,hira --capacities 8,32 \
        --mixes 2 --workers 4 --cache-dir .sweep-cache
    python -m repro.cli worker --port 7781 &
    python -m repro.cli sweep --backend socket --port 7781
    python -m repro.cli sweep --status-file .sweep-status.json
    python -m repro.cli status --status-file .sweep-status.json
    python -m repro.cli security --nrh 128 --slack 4
    python -m repro.cli perf --out BENCH_kernel.json
"""

from __future__ import annotations

import argparse

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.experiments.coverage import coverage_distribution, tested_row_sample
    from repro.experiments.modules import TESTED_MODULES, build_module_chip
    from repro.experiments.second_act import characterize_normalized_nrh

    module = next((m for m in TESTED_MODULES if m.label == args.module), None)
    if module is None:
        print(f"unknown module {args.module!r}; choose from "
              f"{[m.label for m in TESTED_MODULES]}")
        return 2
    chip = build_module_chip(module)
    rows = tested_row_sample(chip.geometry, chunk=2048, stride=args.stride)
    coverage = coverage_distribution(
        chip, 0, chip.timing.hira_t1, chip.timing.hira_t2,
        tested_rows=rows, rows_a=rows[:: args.rows_a_step],
        workers=args.workers,
    )
    victims = rows[:: max(1, len(rows) // args.victims)][: args.victims]
    thresholds = characterize_normalized_nrh(chip, 0, victims)
    ratios = summarize([r.normalized for r in thresholds])
    print(format_table(
        ["metric", "min", "avg/mean", "max"],
        [
            ["HiRA coverage", f"{coverage.minimum:.3f}", f"{coverage.average:.3f}",
             f"{coverage.maximum:.3f}"],
            ["normalized NRH", f"{ratios.minimum:.2f}", f"{ratios.mean:.2f}",
             f"{ratios.maximum:.2f}"],
        ],
        title=f"Module {module.label} ({module.chip_identifier})",
    ))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.config import SystemConfig
    from repro.sim.system import System
    from repro.workloads.mixes import mix_for

    config = SystemConfig(
        capacity_gbit=args.capacity,
        channels=args.channels,
        ranks_per_channel=args.ranks,
        refresh_mode=args.mode,
        refresh_granularity=args.granularity,
        tref_slack_acts=args.slack,
        para_nrh=args.para_nrh,
    )
    system = System(
        config, mix_for(args.mix), seed=args.seed, instr_budget=args.instructions
    )
    tracers = []
    if args.trace_out:
        from repro.obs.tracer import attach_tracers

        tracers = attach_tracers(system)
    result = system.run()
    print(format_table(
        ["metric", "value"],
        [
            ["weighted speedup", f"{result.weighted_speedup:.3f}"],
            ["cycles", result.cycles],
            ["reads served", result.stat_total("reads_served")],
            ["REF commands", result.stat_total("refs")],
            ["REFsb commands", result.stat_total("refs_sb")],
            ["solo refreshes", result.stat_total("solo_refreshes")],
            ["refresh-access HiRA ops", result.stat_total("hira_access_parallelized")],
            ["refresh-refresh HiRA ops", result.stat_total("hira_refresh_parallelized")],
            ["preventive refreshes", result.stat_total("preventive_generated")],
            ["deadline misses", result.stat_total("deadline_misses")],
        ],
        title=f"{args.mode} @ {args.capacity:.0f} Gbit, mix {args.mix}",
    ))
    if tracers:
        import os

        from repro.obs.tracer import trace_json
        from repro.orchestrator import atomic_write_text

        os.makedirs(args.trace_out, exist_ok=True)
        for tracer in tracers:
            path = os.path.join(
                args.trace_out, f"simulate-ch{tracer.channel}.trace.json"
            )
            atomic_write_text(path, trace_json(tracer.export()))
            print(
                f"wrote {path} ({tracer.events_total} events, "
                f"{tracer.dropped} dropped)"
            )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.orchestrator import atomic_write_text
    from repro.sim.audit import attach_auditors
    from repro.sim.config import SystemConfig
    from repro.sim.oracle import oracle_for_config
    from repro.sim.system import System
    from repro.workloads.mixes import mix_for

    config = SystemConfig(
        capacity_gbit=args.capacity,
        channels=args.channels,
        ranks_per_channel=args.ranks,
        refresh_mode=args.mode,
        refresh_granularity=args.granularity,
        tref_slack_acts=args.slack,
    )
    system = System(
        config, mix_for(args.mix), seed=args.seed, instr_budget=args.instructions
    )
    auditors = attach_auditors(system)
    result = system.run()
    oracle = oracle_for_config(config)

    if args.rules_out:
        atomic_write_text(
            args.rules_out, json.dumps(oracle.table.to_json(), indent=2) + "\n"
        )
        print(f"wrote rule table to {args.rules_out}")

    failed = False
    rows = []
    for channel, auditor in enumerate(auditors):
        problems = oracle.check_messages(auditor.records)
        rows.append([f"channel {channel}", str(len(auditor.records)), str(len(problems))])
        for problem in problems[:10]:
            print(f"channel {channel} oracle: {problem}")
        if problems:
            failed = True
        if args.export_log:
            path = Path(args.export_log)
            if len(auditors) > 1:
                path = path.with_name(f"{path.stem}-ch{channel}{path.suffix}")
            atomic_write_text(path, json.dumps(auditor.export_log()) + "\n")
            print(f"wrote audit log to {path}")
    print(format_table(
        ["channel", "commands", "oracle violations"],
        rows,
        title=f"audit: {args.mode}/{args.granularity}, "
        f"{result.cycles} cycles, finished={result.finished}",
    ))
    if failed:
        print("FAIL: timing violations found")
        return 1
    print("OK: command stream clean under the oracle")
    return 0


def _parse_list(text: str, convert) -> tuple:
    return tuple(convert(part) for part in text.split(",") if part)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.orchestrator import (
        ResultCache,
        Sweep,
        Variant,
        axis,
        mix_workloads,
        plan_sweep,
        run_sweep,
    )
    from repro.sim.config import SystemConfig

    variants = []
    for mode in _parse_list(args.modes, str):
        if mode == "hira":
            for slack in args.slacks:
                variants.append(
                    Variant.make(
                        f"HiRA-{slack}", refresh_mode="hira", tref_slack_acts=slack
                    )
                )
        else:
            variants.append(Variant.make(mode, refresh_mode=mode))

    axes = [axis("cfg", *variants)]
    axes.append(axis("capacity_gbit", *_parse_list(args.capacities, float)))
    if args.channels != "1":
        axes.append(axis("channels", *_parse_list(args.channels, int)))
    if args.ranks != "1":
        axes.append(axis("ranks_per_channel", *_parse_list(args.ranks, int)))
    if args.nrhs:
        axes.append(axis("para_nrh", *_parse_list(args.nrhs, float)))
    if args.granularities != "all_bank":
        axes.append(
            axis("refresh_granularity", *_parse_list(args.granularities, str))
        )

    sweep = Sweep(
        name=args.name,
        axes=tuple(axes),
        workloads=mix_workloads(args.mixes),
        base=SystemConfig(),
        instr_budget=args.instructions,
        max_cycles=args.max_cycles,
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    backend = args.backend
    owned_backend = None
    if backend == "socket":
        from repro.orchestrator.backends import SocketBackend

        backend = owned_backend = SocketBackend(
            host=args.host,
            port=args.port,
            spawn_workers=args.spawn_workers,
            registration_timeout=args.registration_timeout,
            job_deadline=args.job_deadline,
            strict=args.strict_backend,
            fallback_workers=args.workers,
        )
        print(f"socket backend: job server on {backend.host}:{backend.port}")

    status = None
    if args.status_file:
        from repro.obs.fleet import FleetStatus

        status = FleetStatus(args.status_file)

    print(f"sweep {args.name!r}: {sweep.size} points on {args.workers or 'auto'} workers")
    plan = None
    if cache is not None:
        # The store is the sweep's only durable record: plan against it,
        # and leave the manifest `repro status` reads progress from.
        plan = plan_sweep(sweep, cache)
        previous = cache.write_manifest(args.name, plan.keys)
        print(f"plan: {plan.describe()}")
        if previous is not None and previous != cache.fingerprint:
            print(
                "plan: simulator source changed since the last run of this "
                "sweep; its stored points will be recomputed, not replayed"
            )
    try:
        result = run_sweep(
            sweep,
            workers=args.workers,
            cache=cache,
            backend=backend,
            plan=plan,
            status=status,
        )
    finally:
        if owned_backend is not None:
            owned_backend.close()

    cells: dict[tuple, list] = {}
    for point, res in result:
        cell = tuple(c for c in point.coords if c[0] != "workload")
        agg = cells.setdefault(cell, [0.0, 0.0, 0])
        agg[0] += res.weighted_speedup
        agg[1] += res.stat_total("reads_served")
        agg[2] += 1
    rows = [
        [", ".join(f"{k}={v}" for k, v in cell), f"{ws / n:.3f}", f"{reads / n:.0f}"]
        for cell, (ws, reads, n) in cells.items()
    ]
    # Surface the socket server's hidden counters on the summary line —
    # only the non-zero ones, so serial/local titles (and the CI greps
    # on "N cached") are unchanged.
    tele = result.telemetry
    extras = [
        f"{key} {tele[key]}"
        for key in ("retries", "speculated", "quarantined")
        if tele.get(key)
    ]
    if tele.get("degraded"):
        extras.append("degraded to local pool")
    suffix = f"; {', '.join(extras)}" if extras else ""
    print(format_table(
        ["configuration", "weighted speedup", "reads served"],
        rows,
        title=f"sweep {args.name}: {len(result)} runs, "
        f"{result.reused} cached, {result.computed} executed, "
        f"{result.elapsed_s:.1f}s on {result.workers} workers "
        f"({result.backend} backend{suffix})",
    ))
    if status is not None:
        print(f"status file: {args.status_file}")
    if args.json_out:
        import json

        from repro.orchestrator import atomic_write_text

        payload = {
            "name": args.name,
            "runs": len(result),
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "backend": result.backend,
            "reused": result.reused,
            "computed": result.computed,
            "elapsed_s": round(result.elapsed_s, 3),
            "workers": result.workers,
            "telemetry": result.telemetry,
            **({"fleet": status.job_counts()} if status is not None else {}),
            "cells": [
                {
                    "coords": dict(cell),
                    "mean_ws": ws / n,
                    "mean_reads": reads / n,
                    "n": n,
                }
                for cell, (ws, reads, n) in cells.items()
            ],
        }
        atomic_write_text(args.json_out, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json_out}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.orchestrator.backends.worker import serve

    def log(message: str) -> None:
        print(f"[worker] {message}", flush=True)

    log(f"serving {args.host}:{args.port} (ctrl-C to stop)")
    done = serve(
        args.host,
        args.port,
        heartbeat_interval=args.heartbeat,
        connect_timeout=args.connect_timeout,
        max_sessions=args.max_sessions,
        label=args.label,
        welcome_timeout=args.welcome_timeout,
        backoff_seed=args.backoff_seed,
        log=log,
    )
    log(f"executed {done} points total")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.obs.fleet import load_status, render_status
    from repro.orchestrator.cache import ResultCache

    status = load_status(args.status_file) if args.status_file else None
    progress = ResultCache(args.store).progress() if args.store else []
    lines = []
    if args.status_file and status is None:
        lines.append("no status snapshot found")
    if status is not None or progress:
        lines.append(render_status(status, progress))
    print("\n".join(lines) or "nothing to report")
    return 0 if status is not None or progress else 1


def _cmd_security(args: argparse.Namespace) -> int:
    from repro.rowhammer.security import (
        k_factor,
        legacy_pth,
        n_ref_slack_for,
        rowhammer_success_probability,
        solve_pth,
    )

    slack_ns = args.slack * 46.25
    legacy = legacy_pth(args.nrh)
    revisited = solve_pth(args.nrh, n_ref_slack_for(slack_ns))
    print(format_table(
        ["quantity", "value"],
        [
            ["PARA-Legacy pth", f"{legacy:.4f}"],
            ["revisited pth (slack-adjusted)", f"{revisited:.4f}"],
            ["pRH with legacy pth", f"{rowhammer_success_probability(legacy, args.nrh):.3e}"],
            ["pRH with revisited pth",
             f"{rowhammer_success_probability(revisited, args.nrh, n_ref_slack_for(slack_ns)):.3e}"],
            ["k factor (Exp. 9)", f"{k_factor(legacy, args.nrh):.4f}"],
        ],
        title=f"PARA configuration for NRH={args.nrh}, tRefSlack={args.slack}·tRC",
    ))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf import measure_kernel, write_bench

    payload = measure_kernel(instr_budget=args.instructions, reps=args.reps)
    rows = []
    for name, row in payload["workloads"].items():
        rows.append([
            name,
            f"{row['wall_s']:.2f}",
            f"{row['events_per_sec']:,.0f}",
            f"{row['cycles_per_sec']:,.0f}",
            f"{row['speedup_vs_pre_pr']:.2f}x" if "speedup_vs_pre_pr" in row else "-",
        ])
    totals = payload["totals"]
    rows.append([
        "TOTAL",
        f"{totals['wall_s']:.2f}",
        f"{totals['events_per_sec']:,.0f}",
        "",
        f"{totals['speedup_vs_pre_pr']:.2f}x" if "speedup_vs_pre_pr" in totals else "-",
    ])
    print(format_table(
        ["workload", "wall (s)", "events/s", "cycles/s", "vs pre-opt"],
        rows,
        title=f"Kernel throughput ({payload['machine']['cpus']} CPU, "
        f"python {payload['machine']['python']}, {args.reps} reps)",
    ))
    if args.out:
        write_bench(payload, args.out)
        print(f"wrote {args.out}")
    return 0


def _positive_int(text: str) -> int:
    """An argparse type for counts and steps that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """An argparse type for counts that may be 0 but not negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _nonnegative_ints(text: str) -> tuple:
    """An argparse type for a comma list of :func:`_nonnegative_int`."""
    return _parse_list(text, _nonnegative_int)


def _positive_float(text: str) -> float:
    """An argparse type for sizes that must be greater than 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="run the §4 experiments on a module")
    p.add_argument("--module", default="C0")
    p.add_argument("--stride", type=_positive_int, default=64)
    p.add_argument("--rows-a-step", type=_positive_int, default=12, dest="rows_a_step")
    p.add_argument("--victims", type=_positive_int, default=8)
    p.add_argument("--workers", type=int, default=1,
                   help="process pool size for the coverage measurement")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("simulate", help="one cycle-level simulation run")
    p.add_argument("--capacity", type=_positive_float, default=8.0)
    p.add_argument("--channels", type=_positive_int, default=1)
    p.add_argument("--ranks", type=_positive_int, default=1)
    p.add_argument("--mode", choices=("none", "baseline", "elastic", "hira"), default="hira")
    p.add_argument("--granularity", choices=("all_bank", "same_bank"),
                   default="all_bank",
                   help="refresh command granularity: DDR4-style rank-wide "
                        "REF or DDR5-style per-bank REFsb")
    p.add_argument("--slack", type=_nonnegative_int, default=2)
    p.add_argument("--para-nrh", type=float, default=None, dest="para_nrh")
    p.add_argument("--mix", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--instructions", type=_positive_int, default=100_000)
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   help="arm the deterministic sim tracer and write one "
                        "Chrome trace-event JSON per channel to this "
                        "directory (timestamps are simulated cycles)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "audit",
        help="re-verify a run's command stream against the timing oracle",
    )
    p.add_argument("--capacity", type=_positive_float, default=8.0)
    p.add_argument("--channels", type=_positive_int, default=1)
    p.add_argument("--ranks", type=_positive_int, default=1)
    p.add_argument("--mode", choices=("none", "baseline", "elastic", "hira"),
                   default="hira")
    p.add_argument("--granularity", choices=("all_bank", "same_bank"),
                   default="all_bank")
    p.add_argument("--slack", type=_nonnegative_int, default=2)
    p.add_argument("--mix", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--instructions", type=_positive_int, default=20_000)
    p.add_argument("--export-log", default=None, dest="export_log",
                   help="write each channel's audit log as re-checkable JSON")
    p.add_argument("--rules-out", default=None, dest="rules_out",
                   help="write the generated rule table as JSON")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("sweep", help="orchestrated parameter-grid sweep")
    p.add_argument("--name", default="cli-sweep")
    p.add_argument("--modes", default="baseline,hira",
                   help="comma list of refresh modes (none,baseline,elastic,hira)")
    p.add_argument("--slacks", type=_nonnegative_ints, default="2",
                   help="HiRA-N slack values (for mode hira)")
    p.add_argument("--capacities", default="8", help="chip capacities in Gbit")
    p.add_argument("--channels", default="1")
    p.add_argument("--ranks", default="1")
    p.add_argument("--nrhs", default="", help="PARA RowHammer thresholds (optional)")
    p.add_argument("--granularities", default="all_bank",
                   help="comma list of refresh granularities "
                        "(all_bank,same_bank); a non-default list adds a "
                        "refresh_granularity sweep axis")
    p.add_argument("--mixes", type=_positive_int, default=2,
                   help="workload mixes per point")
    p.add_argument("--instructions", type=_positive_int, default=100_000)
    p.add_argument("--max-cycles", type=int, default=10_000_000, dest="max_cycles")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--cache-dir", default=".sweep-cache", dest="cache_dir",
                   help="content-addressed result store; sweeps sharing a "
                        "store compute each point exactly once")
    p.add_argument("--no-cache", action="store_true", dest="no_cache")
    p.add_argument("--backend", choices=("serial", "local", "socket"), default="local",
                   help="execution backend: in-process, local process pool, "
                        "or a TCP job server fed by `repro worker` daemons")
    p.add_argument("--host", default="127.0.0.1",
                   help="socket backend: interface the job server binds")
    p.add_argument("--port", type=int, default=7781,
                   help="socket backend: job-server port (0 = ephemeral)")
    p.add_argument("--spawn-workers", type=int, default=0, dest="spawn_workers",
                   help="socket backend: also launch N localhost workers")
    p.add_argument("--registration-timeout", type=float, default=60.0,
                   dest="registration_timeout",
                   help="socket backend: fail if no worker registers in time")
    p.add_argument("--strict-backend", action="store_true", dest="strict_backend",
                   help="socket backend: fail when no worker registers "
                        "instead of degrading to the local pool")
    p.add_argument("--job-deadline", type=float, default=None, dest="job_deadline",
                   help="socket backend: speculatively re-dispatch a job "
                        "still in flight after this many seconds (straggler "
                        "mitigation; results are deduped, never duplicated)")
    p.add_argument("--json-out", default=None, dest="json_out",
                   help="also write per-cell mean results to a JSON file "
                        "(includes backend telemetry: retries, speculation, "
                        "quarantine, fallback)")
    p.add_argument("--status-file", default=None, dest="status_file",
                   help="mirror live sweep/fleet state to this JSON file "
                        "(atomically rewritten; read it with `repro status`)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("worker", help="sweep-execution worker daemon (socket backend)")
    p.add_argument("--host", default="127.0.0.1", help="job server to connect to")
    p.add_argument("--port", type=int, default=7781)
    p.add_argument("--label", default=None, help="worker name shown in telemetry")
    p.add_argument("--heartbeat", type=float, default=2.0,
                   help="seconds between heartbeats (also sent mid-simulation)")
    p.add_argument("--connect-timeout", type=float, default=60.0,
                   dest="connect_timeout",
                   help="exit after this long without a reachable job server")
    p.add_argument("--max-sessions", type=int, default=None, dest="max_sessions",
                   help="exit after serving N server sessions (tests/CI)")
    p.add_argument("--welcome-timeout", type=float, default=10.0,
                   dest="welcome_timeout",
                   help="give up on a server that accepts but never sends "
                        "welcome after this many seconds")
    p.add_argument("--backoff-seed", type=int, default=0, dest="backoff_seed",
                   help="seed for the reconnect backoff jitter (give each "
                        "worker of a fleet a distinct seed)")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "status",
        help="render a sweep's live fleet status and store progress",
    )
    p.add_argument("--status-file", default=".sweep-status.json",
                   dest="status_file",
                   help="status snapshot written by `repro sweep "
                        "--status-file` ('' skips it)")
    p.add_argument("--store", default=".sweep-cache",
                   help="result store whose sweep manifests report "
                        "per-sweep progress ('' skips them)")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("security", help="PARA configuration for a threshold")
    p.add_argument("--nrh", type=float, default=128.0)
    p.add_argument("--slack", type=_nonnegative_int, default=0)
    p.set_defaults(func=_cmd_security)

    p = sub.add_parser("perf", help="measure kernel throughput (events/sec)")
    p.add_argument("--instructions", type=int, default=200_000,
                   help="measured instructions per workload; the default "
                        "keeps each rep's timed window >= ~1s (matches the "
                        "pinned pre-opt reference walls)")
    p.add_argument("--reps", type=_positive_int, default=3,
                   help="runs per workload; the median wall time is reported")
    p.add_argument("--out", default="BENCH_kernel.json",
                   help="output JSON path ('' disables writing); floors are "
                        "checked by tools/check_kernel_perf.py")
    p.set_defaults(func=_cmd_perf)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
