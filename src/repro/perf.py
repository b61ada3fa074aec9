"""Kernel performance measurement: events/sec on fixed seeded workloads.

The simulation kernel's throughput is the binding constraint on every
sweep the reproduction runs (ROADMAP: "as fast as the hardware allows"),
so it is measured and tracked like a result.  ``repro perf`` (and the
``benchmarks/bench_kernel_perf.py`` wrapper) runs the quick-mode Fig. 12
single-point workloads — the PARA pair at the lowest RowHammer threshold
and the 128 Gbit capacity-margin pair — with pinned seeds, and writes
``BENCH_kernel.json`` so the perf trajectory is recorded per commit.

"Events" are DRAM commands plus column accesses served (ACT, PRE, REF,
RD, WR): the work the scheduler actually performed, independent of how
many idle cycles the event loop skipped.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path

#: The fixed workloads: quick-mode Fig. 12 single points (mix 0, the
#: legacy ``seed = 100 + mix_id`` seeding, 200k measured instructions).
KERNEL_WORKLOADS: tuple[tuple[str, dict], ...] = (
    ("fig12-para-nrh64", dict(refresh_mode="baseline", para_nrh=64.0)),
    ("fig12-hira2-nrh64", dict(refresh_mode="hira", tref_slack_acts=2, para_nrh=64.0)),
    ("fig12-margin-baseline-128g", dict(refresh_mode="baseline", capacity_gbit=128.0)),
    ("fig12-margin-hira2-128g", dict(refresh_mode="hira", tref_slack_acts=2, capacity_gbit=128.0)),
)

#: Pre-optimization (PR 2 kernel) median wall times for the workloads
#: above at ``PRE_PR_INSTR_BUDGET`` instructions.  The 100k-budget
#: values were measured interleaved with the optimized kernel on the
#: reference container (1 CPU, Python 3.11) so host drift cancels out;
#: when the default budget moved to 200k (the SoA kernel got fast
#: enough that a 100k rep could dip under a ~1 s timed window, where
#: timer noise dominates) they were scaled linearly — the kernel is
#: O(events) and events scale with the budget to within 1% (measured
#: ratio 1.99x), and the PR 2 kernel predates this module, so a clean
#: re-measurement is no longer possible.  They are the denominator of
#: the tracked speedup-vs-seed column; absolute times on other hosts
#: differ, ratios travel reasonably well.  Only comparable at the same
#: budget — ``measure_workload`` drops the column at any other scale.
PRE_PR_INSTR_BUDGET = 200_000
PRE_PR_WALL_S: dict[str, float] = {
    "fig12-para-nrh64": 9.16,
    "fig12-hira2-nrh64": 11.72,
    "fig12-margin-baseline-128g": 5.24,
    "fig12-margin-hira2-128g": 8.46,
}

_EVENT_FIELDS = ("acts", "pres", "refs", "reads_served", "writes_served")


def _count_events(result) -> int:
    return sum(
        getattr(stats, field)
        for stats in result.controller_stats
        for field in _EVENT_FIELDS
    )


def measure_workload(
    name: str, overrides: dict, instr_budget: int = 200_000, reps: int = 3
) -> dict:
    """Run one pinned workload ``reps`` times; report the median wall.

    The default budget keeps every rep's timed window >= ~1 s on the
    reference container even after the SoA speedup, so timer granularity
    and scheduler jitter stay well under the drift the median absorbs.
    A degenerate near-zero wall (a stubbed run, a broken clock) reports
    rates of 0.0 rather than ``inf``: the CI floor check then fails
    loudly instead of an absurd rate sailing past it.
    """
    from repro.sim.config import SystemConfig
    from repro.sim.system import System
    from repro.workloads.mixes import mix_for

    config = SystemConfig(**overrides)
    walls = []
    result = None
    for __ in range(reps):
        profiles = mix_for(0, cores=config.cores)
        system = System(config, profiles, seed=100, instr_budget=instr_budget)
        start = time.perf_counter()
        result = system.run()
        walls.append(time.perf_counter() - start)
    wall = statistics.median(walls)
    timeable = wall > 1e-6
    events = _count_events(result)
    instructions = sum(result.instructions)
    row = {
        "wall_s": round(wall, 4),
        "wall_s_all": [round(w, 4) for w in walls],
        "events": events,
        "events_per_sec": round(events / wall, 1) if timeable else 0.0,
        "cycles": result.cycles,
        "cycles_per_sec": round(result.cycles / wall, 1) if timeable else 0.0,
        "instructions": instructions,
        "instr_per_sec": round(instructions / wall, 1) if timeable else 0.0,
    }
    ref = PRE_PR_WALL_S.get(name) if instr_budget == PRE_PR_INSTR_BUDGET else None
    if ref is not None and timeable:
        row["pre_pr_wall_s"] = ref
        row["speedup_vs_pre_pr"] = round(ref / wall, 2)
    return row


def measure_kernel(instr_budget: int = 200_000, reps: int = 3) -> dict:
    """Measure every tracked workload and assemble the bench payload."""
    import os

    from repro.orchestrator.pool import available_cores

    workloads = {}
    for name, overrides in KERNEL_WORKLOADS:
        workloads[name] = measure_workload(
            name, overrides, instr_budget=instr_budget, reps=reps
        )
    total_wall = sum(row["wall_s"] for row in workloads.values())
    total_events = sum(row["events"] for row in workloads.values())
    total_timeable = total_wall > 1e-6
    ref_total = sum(
        row["pre_pr_wall_s"] for row in workloads.values() if "pre_pr_wall_s" in row
    )
    # ``cpus`` is the schedulable count (cgroup/affinity-aware): wall
    # times depend on what this process may actually use, not on how
    # many cores the host advertises.
    cpus = available_cores()
    payload = {
        "schema": 1,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": cpus,
            "cpus_effective": cpus,
            "cpus_total": os.cpu_count() or cpus,
        },
        "instr_budget": instr_budget,
        "reps": reps,
        "workloads": workloads,
        "totals": {
            "wall_s": round(total_wall, 4),
            "events": total_events,
            "events_per_sec": (
                round(total_events / total_wall, 1) if total_timeable else 0.0
            ),
            **(
                {
                    "pre_pr_wall_s": round(ref_total, 4),
                    "speedup_vs_pre_pr": round(ref_total / total_wall, 2),
                }
                if ref_total and total_timeable
                else {}
            ),
        },
    }
    return payload


def write_bench(payload: dict, path: str | Path) -> Path:
    from repro.orchestrator.atomicio import atomic_write_text

    return atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
