"""The full simulated system: cores + address mapper + memory controllers.

The run loop is event-driven: it only visits cycles at which a core can
issue, a controller can schedule, or a read completes, skipping idle time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.rowhammer.para import Para
from repro.sim.addressing import AddressMapper
from repro.sim.config import SystemConfig
from repro.sim.controller import (
    BaselineRefreshEngine,
    ControllerStats,
    MemoryController,
    NoRefreshEngine,
    RefreshEngine,
)
from repro.sim.core import CoreModel
from repro.sim.metrics import alone_ipc_estimate, weighted_speedup
from repro.sim.request import Request
from repro.sim.trace import TraceGenerator, TraceProfile

_FAR_FUTURE = 1 << 60


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    cycles: int
    ipcs: list[float]
    alone_ipcs: list[float]
    controller_stats: list[ControllerStats]
    instructions: list[int]
    reads: int
    writes: int
    finished: bool
    meta: dict = field(default_factory=dict)

    @property
    def weighted_speedup(self) -> float:
        return weighted_speedup(self.ipcs, self.alone_ipcs)

    def stat_total(self, name: str) -> int:
        return sum(getattr(s, name) for s in self.controller_stats)


def _build_engine(config: SystemConfig) -> RefreshEngine:
    if config.refresh_mode == "none":
        return NoRefreshEngine()
    if config.refresh_mode == "baseline":
        return BaselineRefreshEngine()
    if config.refresh_mode == "elastic":
        from repro.sim.elastic import ElasticRefreshEngine

        return ElasticRefreshEngine()
    from repro.core.engine import HiraRefreshEngine  # local import: avoids cycle

    return HiraRefreshEngine(
        tref_slack_acts=config.tref_slack_acts,
        coverage=config.hira_coverage,
        stagger=config.stagger_bank_refresh,
        disable_access_parallelization=config.disable_access_parallelization,
        disable_refresh_parallelization=config.disable_refresh_parallelization,
        pressure_threshold=config.hira_pressure_threshold,
        eager_pairing=config.hira_eager_pairing,
    )


def _build_para(config: SystemConfig, channel: int):
    if config.para_nrh is None and config.para_pth_override is None:
        return None
    if config.defense == "graphene":
        from repro.rowhammer.defense import GrapheneDefense

        slack = config.tref_slack_acts if config.refresh_mode == "hira" else 0
        return GrapheneDefense(nrh=config.para_nrh, tref_slack_acts=slack)
    if config.para_pth_override is not None:
        import numpy as np

        return Para(
            pth=config.para_pth_override,
            rng=np.random.default_rng(config.para_seed + channel),
        )
    slack_ns = (
        config.tref_slack_ps / 1_000.0 if config.refresh_mode == "hira" else 0.0
    )
    para = Para.configured_for(
        nrh=config.para_nrh,
        tref_slack_ns=slack_ns,
        seed=config.para_seed + channel,
        trc_ns=config.timing.trc / 1_000.0,
    )
    return para


class System:
    """Builds and runs one simulated configuration."""

    def __init__(
        self,
        config: SystemConfig,
        profiles: list[TraceProfile],
        seed: int = 1,
        instr_budget: int = 100_000,
        warmup_instr: int | None = None,
    ):
        if len(profiles) != config.cores:
            raise ValueError(
                f"need {config.cores} trace profiles, got {len(profiles)}"
            )
        self.config = config
        self.profiles = profiles
        self.mapper = AddressMapper(config.geometry)
        self.instr_budget = instr_budget
        # Paper methodology (§7): warm up for half the measured budget so
        # both refresh schedules and queues reach steady state before IPC
        # measurement begins.
        if warmup_instr is None:
            warmup_instr = instr_budget // 2
        self.warmup_instr = warmup_instr
        self.cores = [
            CoreModel(
                core_id=i,
                trace=TraceGenerator(profile, self.mapper, seed=seed * 1_000 + i),
                instr_budget=instr_budget,
                instr_per_mc_cycle=config.instr_per_mc_cycle,
                instr_window=config.instr_window,
                mshr=config.mshr_per_core,
                warmup_instr=warmup_instr,
            )
            for i, profile in enumerate(profiles)
        ]
        self.controllers = []
        for channel in range(config.channels):
            engine = _build_engine(config)
            para = _build_para(config, channel)
            mc = MemoryController(channel, config, engine)
            engine.para = para  # engines check this attribute on demand ACTs
            self.controllers.append(mc)

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 10_000_000) -> SimResult:
        """Run until every core finishes its budget or ``max_cycles``.

        The result is exactly that of a dense loop which calls every
        controller's ``schedule`` on every cycle.  Skipping a cycle is
        only allowed where that loop provably does nothing: per-core wake
        times are cached and invalidated only by the events that can
        change them (a read completion, an issued request), and a
        controller is woken at its ``_progress_at`` — the bound its last
        ``schedule`` call proved (kept exact by the contract in
        ``MemoryController.schedule``) — or on the next cycle when it has
        none.
        """
        cores = self.cores
        mcs = self.controllers
        heappush = heapq.heappush
        heappop = heapq.heappop
        completion_heap: list[tuple[int, int, int]] = []  # (cycle, seq, core)
        entry_by_seq: dict[int, object] = {}
        seq = 0
        retry_at = [0] * len(cores)
        #: Next cycle each core must be polled; _FAR_FUTURE while the core
        #: is done or blocked on a completion whose time is unknown (the
        #: completion delivery resets it).  ``ready_cycle`` is a pure
        #: function of core state, so a cached wake stays valid until one
        #: of those events mutates the core.
        core_wake = [0] * len(cores)
        n_undone = len(cores)
        cycle = 0
        #: Cached min(core_wake): step 2 is skipped while every core
        #: sleeps and no completion was delivered this cycle (every
        #: per-core iteration would hit the ``core_wake`` guard).
        min_core_wake = 0

        while cycle < max_cycles:
            # 1. Deliver due read completions to cores.
            delivered = False
            while completion_heap and completion_heap[0][0] <= cycle:
                done_cycle, done_seq, core_id = heappop(completion_heap)
                cores[core_id].on_read_complete(entry_by_seq.pop(done_seq), done_cycle)
                core_wake[core_id] = cycle
                delivered = True

            # 2. Let cores issue requests into controller queues.
            if delivered or min_core_wake <= cycle:
                for cid, core in enumerate(cores):
                    if core_wake[cid] > cycle:
                        continue
                    if core.done:
                        core_wake[cid] = _FAR_FUTURE
                        n_undone -= 1
                        continue
                    while True:
                        ready = core.ready_cycle(cycle)
                        if ready is None:
                            core_wake[cid] = _FAR_FUTURE
                            if core.done:
                                n_undone -= 1
                            break
                        retry = retry_at[cid]
                        if ready > cycle or retry > cycle:
                            core_wake[cid] = ready if ready > retry else retry
                            break
                        # The access arrives decoded (trace refill): route
                        # it by the channel it carries.
                        __, __, is_write, channel, rank, bank, row = (
                            core.peek_pending()
                        )
                        req = Request(is_write, cid, cycle, rank, bank, row)
                        if not mcs[channel].enqueue(req):
                            retry_at[cid] = cycle + 4
                            core_wake[cid] = cycle + 4
                            break
                        entry = core.take_request(cycle)
                        if entry is not None:
                            req.rob = entry
                min_core_wake = min(core_wake)

            # 3. Each channel issues at most one command this cycle.
            # ``_progress_at`` is set only when a call issued nothing and
            # mutated nothing, from exact gate folds that hold until the
            # next mutation (an outside one resets it to 0), so skipping
            # until then is behavior-identical.  Completions only appear when
            # schedule runs, so the drain is skipped with it.
            for mc in mcs:
                if mc._progress_at > cycle:
                    continue
                mc.schedule(cycle)
                completions = mc.completions
                if completions:
                    for done_cycle, req in completions:
                        heappush(completion_heap, (done_cycle, seq, req.core_id))
                        entry_by_seq[seq] = req.rob
                        seq += 1
                    completions.clear()

            if not n_undone:
                break

            # 4. Jump to the next interesting cycle.
            nxt = _FAR_FUTURE
            if completion_heap:
                nxt = completion_heap[0][0]
            if min_core_wake < nxt:
                nxt = min_core_wake
            for mc in mcs:
                wake = mc._progress_at
                if wake <= cycle:
                    wake = cycle + 1
                if wake < nxt:
                    nxt = wake
            if nxt <= cycle:
                nxt = cycle + 1
            if nxt == _FAR_FUTURE:
                break
            cycle = nxt

        finished = all(core.done for core in cores)
        end_cycle = max(
            (core.finish_cycle or cycle for core in cores), default=cycle
        )
        for mc in mcs:
            if mc.tracer is not None:
                mc.tracer.on_run_end(end_cycle, min(cycle, max_cycles - 1))
        ipcs = [core.ipc(core.finish_cycle) if core.done else core.ipc(end_cycle) for core in cores]
        alone = [
            alone_ipc_estimate(p.mpki, self.config.instr_per_mc_cycle)
            for p in self.profiles
        ]
        return SimResult(
            cycles=end_cycle,
            ipcs=ipcs,
            alone_ipcs=alone,
            controller_stats=[mc.stats for mc in mcs],
            instructions=[core.instructions_retired for core in cores],
            reads=sum(core.reads_issued for core in cores),
            writes=sum(core.writes_issued for core in cores),
            finished=finished,
            meta={"refresh_mode": self.config.refresh_mode},
        )
