"""Performance metrics: weighted speedup and friends (§7).

The paper reports system performance as weighted speedup [31, 156]:
``WS = Σ_i IPC_shared_i / IPC_alone_i``.  All of the paper's figures plot
weighted speedup *normalized* to a reference configuration, so the alone
IPCs act as fixed per-core weights that cancel qualitatively in the ratios.
``alone_ipc_estimate`` supplies those weights analytically from the trace
profile (peak-width execution with an idealized memory latency); callers
that want exact alone IPCs can run single-core simulations instead and pass
them in.
"""

from __future__ import annotations

from typing import Sequence


def alone_ipc_estimate(
    mpki: float,
    instr_per_mc_cycle: float,
    idle_mem_latency_cycles: float = 40.0,
    effective_mlp: float = 4.0,
) -> float:
    """Analytic alone-run IPC (instructions per MC cycle) for a profile.

    Per 1000 instructions: frontend time ``1000 / instr_per_mc_cycle``
    plus ``mpki`` misses each costing ``idle_mem_latency / effective_mlp``
    exposed cycles.
    """
    if instr_per_mc_cycle <= 0:
        raise ValueError("instr_per_mc_cycle must be positive")
    frontend = 1000.0 / instr_per_mc_cycle
    memory = mpki * idle_mem_latency_cycles / max(effective_mlp, 1.0)
    return 1000.0 / (frontend + memory)


def weighted_speedup(shared_ipcs: Sequence[float], alone_ipcs: Sequence[float]) -> float:
    """``Σ IPC_shared / IPC_alone`` over the cores of one workload."""
    if len(shared_ipcs) != len(alone_ipcs):
        raise ValueError("shared and alone IPC lists must align")
    if not shared_ipcs:
        raise ValueError("need at least one core")
    total = 0.0
    for shared, alone in zip(shared_ipcs, alone_ipcs):
        if alone <= 0:
            raise ValueError("alone IPC must be positive")
        total += shared / alone
    return total
