"""The per-channel memory controller: FR-FCFS, open-row policy, refresh.

One controller owns one channel's command bus, data bus, and bank/rank
timing state.  Refresh behaviour is pluggable through a
:class:`RefreshEngine`; the baseline issues rank-level REF commands every
tREFI (blocking the rank for tRFC), while HiRA-MC (in :mod:`repro.core`)
replaces them with HiRA operations scheduled around demand accesses.

Hot-path layout (struct of arrays)
----------------------------------
Timing state lives in :class:`TimingArrays`: flat lists indexed by the
global bank id ``g = rank * banks_per_rank + bank`` (bank axes) or by
rank / flattened ``(rank, bankgroup)`` (rank axes), instead of nested
per-object attributes.  The scheduler never scans request queues: per
queue, a per-bank head index (bank id -> that bank's requests in
arrival order), per-``(bank, row)`` row-hit deques and the hit-bank set
are maintained at enqueue/dequeue, so command selection visits only the
heads of banks that have work.  ``schedule()`` memoizes its own next
useful cycle (``_progress_at``) whenever a call provably issued nothing
and mutated nothing; the system loop wakes each controller there and
nowhere else, so a run is bit-identical to a dense loop that calls
``schedule`` on every cycle — ``tests/test_kernel_equivalence.py``
checks exactly that, besides pinning the kernel A/B and audit-digest
goldens.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from repro.sim.config import SystemConfig
from repro.sim.request import Request

_FAR_FUTURE = 1 << 60
#: Sentinel returned by ``_schedule_queues`` when it issued a command (any
#: real wake bound is a non-negative cycle).
_ISSUED = -2


class TimingArrays:
    """Struct-of-arrays timing state for one channel.

    Bank axes (``open_row``, ``next_act``, ``next_pre``, ``next_rdwr``)
    are flat lists of length ``ranks * banks_per_rank`` indexed by the
    global bank id ``g``; rank axes are length-``ranks`` lists; the
    bank-group ACT gate (tRRD_L) is flattened to
    ``rank * bankgroups_per_rank + group``.  ``open_row`` uses ``-1``
    for a precharged bank so every element stays a machine int.

    Plain Python lists, deliberately not numpy: the hot loops make a
    handful of *scalar* accesses per visited cycle, and a measured
    scalar ``ndarray[i]`` read costs ~4x a list index (every read boxes
    a numpy scalar) — numpy pays only where bulk math amortizes, e.g.
    the vectorized trace refill.

    ``act_floor[rank]`` is a maintained derived gate:
    ``max(next_act_any[rank], faw[rank][0] + tFAW)`` (0 while fewer than
    four ACTs are in the window).  It is recomputed at every ACT record,
    so ``act_allowed_at`` and its inlined copies fold one precomputed
    value instead of re-deriving the tFAW gate per scan.  Code that
    writes a column directly (tests) must keep this invariant and call
    ``mark_dirty`` afterwards.
    """

    __slots__ = (
        "open_row",
        "next_act",
        "next_pre",
        "next_rdwr",
        "busy_until",
        "ref_due",
        "ref_ready",
        "next_refsb",
        "next_act_any",
        "act_floor",
        "faw",
        "group_gate",
    )

    def __init__(self, ranks: int, banks_per_rank: int, groups_per_rank: int):
        nb = ranks * banks_per_rank
        self.open_row = [-1] * nb
        self.next_act = [0] * nb
        self.next_pre = [0] * nb
        self.next_rdwr = [0] * nb
        self.busy_until = [0] * ranks
        self.ref_due = [0] * ranks
        self.ref_ready = [0] * ranks
        self.next_refsb = [0] * ranks
        self.next_act_any = [0] * ranks
        self.act_floor = [0] * ranks
        self.faw = [deque() for __ in range(ranks)]
        self.group_gate = [0] * (ranks * groups_per_rank)


@dataclass(slots=True)
class ControllerStats:
    """Per-channel event counters."""

    reads_served: int = 0
    writes_served: int = 0
    row_hits: int = 0
    row_misses: int = 0
    acts: int = 0
    pres: int = 0
    refs: int = 0
    refs_sb: int = 0
    solo_refreshes: int = 0
    hira_access_parallelized: int = 0
    hira_refresh_parallelized: int = 0
    preventive_generated: int = 0
    periodic_generated: int = 0
    deadline_misses: int = 0
    queue_full_rejections: int = 0


class RefreshEngine:
    """Interface between the controller and a refresh policy.

    The base class carries the PARA preventive-refresh plumbing shared by
    all engines: when ``para`` is set, every demand activation may generate
    a preventive refresh for a neighbouring victim row.  Without HiRA the
    preventive refresh is performed as a blocking nominal ACT+PRE as soon
    as the bank allows (the original PARA behaviour [84]); HiRA-MC
    overrides :meth:`on_demand_act` to queue it with a deadline instead.
    """

    #: ``schedule`` may reuse this engine's wake (rule 4 of its contract).
    wake_reusable = True

    def __init__(self) -> None:
        self.para = None
        self._preventive: deque = deque()

    def attach(self, mc: "MemoryController") -> None:
        self.mc = mc

    # -- PARA ------------------------------------------------------------
    def para_observe_act(self, rank: int, bank_id: int, row: int, now: int) -> int | None:
        """PARA's Bernoulli draw for one observed activation.

        Applies to demand row activations (the attacker-controllable
        ones).  At low RowHammer thresholds the resulting preventive
        refreshes destroy row-buffer locality — each one closes the open
        row — which multiplies the demand activation count itself and
        compounds PARA's overhead (§9.2's 96% regime).
        """
        if self.para is None:
            return None
        victim = self.para.preventive_refresh_target(
            row, self.mc.config.rows_per_bank, bank_key=(rank, bank_id)
        )
        if victim is not None:
            self.mc.stats.preventive_generated += 1
        return victim

    def on_demand_act(self, req: Request, now: int) -> None:
        """Called after a demand ACT is issued (PARA's observation point)."""
        victim = self.para_observe_act(req.rank, req.bank, req.row, now)
        if victim is not None:
            # Without HiRA the preventive refresh is due immediately.
            self._queue_preventive(req.rank, req.bank, victim, now)

    def _queue_preventive(self, rank: int, bank_id: int, row: int, deadline: int) -> None:
        """Overflow queue for preventive refreshes, keeping each deadline."""
        self._preventive.append((rank, bank_id, row, deadline))
        self.mc.mark_dirty()

    def _service_preventive(self, now: int) -> int:
        """Perform the oldest feasible queued preventive refresh.

        Returns ``_ISSUED``, else the earliest cycle any queued entry's
        gates open (``_FAR_FUTURE`` when the queue is empty)."""
        pending = self._preventive
        wake = _FAR_FUTURE
        if not pending:
            return wake
        mc = self.mc
        ta = mc._ta
        b_open = ta.open_row
        busy = ta.busy_until
        act_floor = ta.act_floor
        group_gate = ta.group_gate
        banks_per_rank = mc.banks_per_rank
        groups = mc.bankgroups_per_rank
        bpg = mc.banks_per_bankgroup
        for i, (rank, bank_id, row, __) in enumerate(pending):
            g = rank * banks_per_rank + bank_id
            gate = busy[rank]
            if b_open[g] >= 0:
                c = ta.next_pre[g]
                if c > gate:
                    gate = c
                if gate <= now:
                    mc.issue_pre(rank, bank_id, now)
                    return _ISSUED
            else:
                # act_allowed_at, inlined (this scan is on the hot path).
                c = ta.next_act[g]
                if c > gate:
                    gate = c
                c = act_floor[rank]
                if c > gate:
                    gate = c
                c = group_gate[rank * groups + bank_id // bpg]
                if c > gate:
                    gate = c
                if gate <= now:
                    del pending[i]
                    mc.issue_solo_refresh(rank, bank_id, now)
                    return _ISSUED
            if gate < wake:
                wake = gate
        return wake

    # -- Policy hooks ------------------------------------------------------
    def urgent(self, now: int) -> int:
        """Issue due refresh work: ``_ISSUED`` if a command went out.

        Otherwise returns the cycle at which ``urgent`` could next issue
        a command or mutate scheduling state, folded in the same loop
        that checked the gates: exact when computed.  ``schedule`` reuses
        it until then or the next ``mark_dirty()`` (its rule 4).
        A value ``<= now`` simply disables skipping for this controller.
        """
        return self._service_preventive(now)

    def on_act(self, req: Request, now: int) -> int | None:
        """Refresh-access hook: row to refresh with a HiRA ACT, or None."""
        return None


class NoRefreshEngine(RefreshEngine):
    """The ideal No-Refresh system of Fig. 9a (still honours PARA if set)."""


class BaselineRefreshEngine(RefreshEngine):
    """Rank-level REF every tREFI, blocking the rank for tRFC (§2.3).

    With ``refresh_granularity="same_bank"`` the engine instead issues a
    DDR5-style REFsb to every bank once per tREFI (staggered across the
    channel's banks): each command blocks only its target bank for
    tRFC_sb, so sibling banks keep serving demand during refresh.
    """

    def attach(self, mc: "MemoryController") -> None:
        super().attach(mc)
        trefi = mc.trefi_c
        self._same_bank = mc.config.refresh_granularity == "same_bank"
        if self._same_bank:
            #: Per-bank REFsb due times (each bank every tREFI), plus a
            #: heap mirror for O(log n) promotion and a draining set for
            #: banks committed to an imminent REFsb.
            self._sb_due: dict[tuple[int, int], int] = {}
            self._sb_heap: list[tuple[int, int, int]] = []
            self._sb_draining: set[tuple[int, int]] = set()
            n_ranks = mc.config.ranks_per_channel
            total = n_ranks * mc.banks_per_rank
            index = 0
            for rank_id in range(n_ranks):
                for bank_id in range(mc.banks_per_rank):
                    due = ((index + 1) * trefi) // total
                    self._sb_due[(rank_id, bank_id)] = due
                    heapq.heappush(self._sb_heap, (due, rank_id, bank_id))
                    index += 1
            return
        n_ranks = mc.config.ranks_per_channel
        for i in range(n_ranks):
            # Stagger REF across ranks so they do not collide on the bus.
            mc._ta.ref_due[i] = trefi + (i * trefi) // max(1, n_ranks)

    # -- Same-bank (REFsb) path --------------------------------------------
    def _sb_promote(self, now: int) -> int:
        """Commit due banks to draining: demand to them is deferred so a
        hot row-hit stream cannot keep the bank open past its REFsb.

        Returns the cycle the next promotion fires."""
        heap = self._sb_heap
        mc = self.mc
        promoted = False
        while heap and heap[0][0] <= now:
            due, rank_id, bank_id = heapq.heappop(heap)
            key = (rank_id, bank_id)
            self._sb_draining.add(key)
            mc.blocked_banks.add(key)
            promoted = True
            if mc.tracer is not None:
                mc.tracer.on_decision("sb-promote", now, rank_id, bank_id, due)
        if promoted:
            mc.mark_dirty()
        return heap[0][0] if heap else _FAR_FUTURE

    def _sb_account(self, key: tuple[int, int], now: int, due: int) -> None:
        """Postponement bookkeeping hook (elastic overrides)."""

    def _sb_issue_due(self, now: int) -> int:
        """Progress one draining bank: PRE it, wait tRP, then REFsb.

        Returns ``_ISSUED``, else the earliest drain-step gate."""
        mc = self.mc
        ta = mc._ta
        banks_per_rank = mc.banks_per_rank
        wake = _FAR_FUTURE
        for key in self._sb_draining:
            rank_id, bank_id = key
            g = rank_id * banks_per_rank + bank_id
            gate = ta.busy_until[rank_id]
            if ta.open_row[g] >= 0:
                c = ta.next_pre[g]
                if c > gate:
                    gate = c
                if gate <= now:
                    mc.issue_pre(rank_id, bank_id, now)
                    return _ISSUED
            else:
                # next_act carries both tRP-after-PRE and the previous
                # REFsb's busy window; next_refsb is the rank's
                # tREFSB_GAP spacing.
                c = ta.next_act[g]
                if c > gate:
                    gate = c
                c = ta.next_refsb[rank_id]
                if c > gate:
                    gate = c
                if gate <= now:
                    self._sb_draining.discard(key)
                    mc.blocked_banks.discard(key)
                    mc.issue_refsb(rank_id, bank_id, now)
                    due = self._sb_due[key]
                    self._sb_account(key, now, due)
                    self._sb_due[key] = due + mc.trefi_c
                    heapq.heappush(self._sb_heap, (due + mc.trefi_c, rank_id, bank_id))
                    return _ISSUED
            if gate < wake:
                wake = gate
        return wake

    def _sb_urgent(self, now: int) -> int:
        wake = self._service_preventive(now)
        if wake == _ISSUED:
            return _ISSUED
        w = self._sb_promote(now)
        if w < wake:
            wake = w
        w = self._sb_issue_due(now)
        return w if w < wake else wake

    # -- All-bank (rank REF) path ------------------------------------------
    def _engage_at(self, rank_id: int) -> int:
        """Cycle the rank's REF drain engages (elastic may postpone it)."""
        return self.mc._ta.ref_due[rank_id]

    def _engage(self, rank_id: int) -> None:
        """Drain the rank: defer new demand to it so sustained traffic
        cannot keep reopening banks (or pushing tRP-readiness away)
        faster than the tRAS-gated precharges close them — without this,
        a saturated rank would starve REF forever."""
        mc = self.mc
        if rank_id not in mc.blocked_ranks:
            mc.blocked_ranks.add(rank_id)
            mc.mark_dirty()

    def _on_ref(self, rank_id: int, now: int, due: int) -> None:
        """Bookkeeping after the rank's REF issued (elastic overrides)."""

    def urgent(self, now: int) -> int:
        if self._same_bank:
            return self._sb_urgent(now)
        wake = self._service_preventive(now)
        if wake == _ISSUED:
            return _ISSUED
        mc = self.mc
        ta = mc._ta
        busy = ta.busy_until
        for rank_id in range(len(busy)):
            gate = self._engage_at(rank_id)
            if busy[rank_id] > gate:
                gate = busy[rank_id]
            if gate <= now:
                self._engage(rank_id)
                # All banks must be precharged before REF: close the first
                # open bank (tRAS-gated), else wait out tRP.
                open_bank = mc.first_open_bank(rank_id)
                if open_bank is not None:
                    gate = ta.next_pre[rank_id * mc.banks_per_rank + open_bank]
                    if gate <= now:
                        mc.issue_pre(rank_id, open_bank, now)
                        return _ISSUED
                else:
                    gate = ta.ref_ready[rank_id]
                    if gate <= now:
                        due = ta.ref_due[rank_id]
                        mc.blocked_ranks.discard(rank_id)
                        mc.issue_ref(rank_id, now)
                        self._on_ref(rank_id, now, due)
                        ta.ref_due[rank_id] = due + mc.trefi_c
                        return _ISSUED
            if gate < wake:
                wake = gate
        return wake


class MemoryController:
    """One channel's scheduler and timing state."""

    def __init__(self, channel_id: int, config: SystemConfig, engine: RefreshEngine):
        self.channel_id = channel_id
        self.config = config
        tp = config.timing
        c = config.cycles
        self.trcd_c = c(tp.trcd)
        self.tras_c = c(tp.tras)
        self.trp_c = c(tp.trp)
        self.trc_c = c(tp.trc)
        self.trfc_c = c(tp.trfc)
        self.trefi_c = c(tp.trefi)
        self.tcl_c = c(tp.tcl)
        self.tbl_c = c(tp.tbl)
        self.tfaw_c = c(tp.tfaw)
        self.trrd_s_c = c(tp.trrd_s)
        self.trrd_l_c = c(tp.trrd_l)
        self.twr_c = c(tp.twr)
        self.trtp_c = c(tp.trtp)
        self.tcwl_c = c(tp.tcwl)
        self.trtw_c = c(tp.trtw) if tp.trtw else 0
        self.twtr_c = c(tp.twtr) if tp.twtr else 0
        self.trfc_sb_c = c(tp.trfc_sb)
        self.trefsb_gap_c = c(tp.trefsb_gap)
        self.hira_gap_c = c(tp.hira_t1 + tp.hira_t2)
        #: A refresh operation's (last) ACT gates the bank's next ACT by
        #: tRC, and the PRE closing it tRAS later by tRP: the later binds.
        self.refresh_act_gap_c = max(self.trc_c, self.tras_c + self.trp_c)

        geom = config.geometry
        self.banks_per_rank = geom.banks_per_rank
        self.banks_per_bankgroup = geom.banks_per_bankgroup
        self.bankgroups_per_rank = geom.bankgroups_per_rank
        n_ranks = config.ranks_per_channel
        #: The struct-of-arrays hot state (see :class:`TimingArrays`).
        self._ta = TimingArrays(
            n_ranks, self.banks_per_rank, self.bankgroups_per_rank
        )
        self.read_q: list[Request] = []
        self.write_q: list[Request] = []
        self._reads_first = (self.read_q, self.write_q)
        self._writes_first = (self.write_q, self.read_q)
        #: Ranks a refresh engine is draining for an imminent REF; demand
        #: to these ranks is deferred so the drain cannot be starved.
        self.blocked_ranks: set[int] = set()
        #: (rank, bank) pairs a refresh engine is draining for an imminent
        #: same-bank REFsb; demand to these banks is deferred (siblings of
        #: the rank keep scheduling — the point of same-bank refresh).
        self.blocked_banks: set[tuple[int, int]] = set()
        self.bus_next = 0
        self.data_bus_next = 0
        #: Direction of the burst occupying the data bus until
        #: ``data_bus_next`` (None before the first burst): a following
        #: burst in the *other* direction additionally waits out the
        #: tRTW/tWTR turnaround gap.
        self._data_bus_last_write: bool | None = None
        self._draining_writes = False
        #: Deferred single commands (e.g. the PRE closing a refresh-refresh
        #: HiRA pair) as a min-heap of (cycle, rank, bank) bus reservations.
        self._scheduled_closes: list[tuple[int, int, int]] = []
        #: Indexed per-bank scheduler state, per queue: per-bank deques of
        #: queued requests in arrival order (each deque's head is that
        #: bank's FCFS head; an emptied bank's key is deleted), per-(bank,
        #: row) deques of row hits (exactly pruned — a column access
        #: always dequeues its row deque's head) and the set of banks
        #: whose *open* row has queued hits (the FR candidate set).
        self._bank_q_read: dict[int, deque] = {}
        self._bank_q_write: dict[int, deque] = {}
        self._row_q_read: dict[tuple[int, int], deque] = {}
        self._row_q_write: dict[tuple[int, int], deque] = {}
        self._hit_read: set[int] = set()
        self._hit_write: set[int] = set()
        #: Monotonic arrival stamp; queue order == ascending ``seq``.
        self._seq = 0
        #: Mutation epoch: ``schedule`` snapshots it to prove a
        #: non-issuing call was mutation-free before trusting its wake
        #: bound (the contract is in :meth:`schedule`).
        self._epoch = 0
        #: ``schedule`` self-memo: the earliest cycle at which calling
        #: ``schedule`` could do anything (issue or mutate).  The system
        #: loop skips the call entirely while ``cycle < _progress_at``.
        self._progress_at = 0
        #: The wake ``urgent`` last returned to ``schedule`` (rule 4).
        self._engine_wake = 0
        self.stats = ControllerStats()
        self.completions: list[tuple[int, Request]] = []
        #: Optional :class:`repro.sim.audit.CommandAuditor`: the one hook
        #: the issue primitives test, and the channel's only command log
        #: (attach via ``CommandAuditor(mc)``).
        self.auditor = None
        #: Optional :class:`repro.obs.tracer.SimTracer` for the events that
        #: are not commands: engine decisions, stalls, the deferred-close
        #: pop and run end (it reads commands from the auditor).  Pure
        #: observation, like the auditor.
        self.tracer = None
        self.engine = engine
        engine.attach(self)

    # ------------------------------------------------------------------
    # State access helpers (also used by refresh engines)
    # ------------------------------------------------------------------
    def mark_dirty(self) -> None:
        """Invalidate the ``schedule`` memos (``_progress_at``, ``_engine_wake``).

        Called by refresh engines at every mutation of their own state
        (generation, PR-FIFO push/pop/re-admission, drain and block
        sets), and by code that writes timing columns directly: rules 2
        to 4 of the contract in :meth:`schedule`."""
        self._epoch += 1
        self._progress_at = 0
        self._engine_wake = 0

    def first_open_bank(self, rank: int) -> int | None:
        b_open = self._ta.open_row
        base = rank * self.banks_per_rank
        for bank_id in range(self.banks_per_rank):
            if b_open[base + bank_id] >= 0:
                return bank_id
        return None

    def recent_acts(self, rank: int, now: int) -> int:
        """Activations to the rank inside the current tFAW window."""
        # Plain loop: a generator over <= 4 entries costs more (hot path).
        tfaw = self.tfaw_c
        n = 0
        for t in self._ta.faw[rank]:
            if now - t < tfaw:
                n += 1
        return n

    def faw_ok_double(self, rank: int, now: int) -> bool:
        """Room for *two* activations in the four-activation window.

        A HiRA operation issues two ACTs within t1 + t2 (§5.2 counts both
        against tFAW), so replacing a demand ACT with a HiRA sequence is
        only legal when two window slots are free.  This also makes the
        Concurrent Refresh Finder naturally back off from refresh-access
        parallelization in activation-bound phases.
        """
        return self.recent_acts(rank, now) <= 2

    def act_allowed_at(self, rank: int, bank_id: int) -> int:
        """Earliest cycle the bank's next ACT satisfies every rank gate.

        KEEP IN LOCKSTEP: this formula is hand-inlined in three hot scans
        — ``RefreshEngine._service_preventive``, the FCFS pass of
        ``_schedule_queues``, and the due scan of the HiRA engine's
        ``urgent`` (all marked "act_allowed_at, inlined").  Each copy
        both decides issue and folds the ``schedule`` memo's wake from
        the same gate, so a new ACT gate added to all of them keeps
        legality and wake in step; one missing from a copy makes that
        copy issue an illegal ACT, which the timing oracle flags.  The
        tFAW and tRRD_S terms are pre-folded into the maintained
        ``act_floor`` (see :class:`TimingArrays`); a gate that cannot
        fold into it must be added to every inline copy.  (tRTP feeds
        ``next_pre`` and the DDR5 REFsb busy window feeds ``next_act``
        directly at issue time, so both are already visible everywhere;
        the tRTW/tWTR turnaround is a *column* gate, folded into the FR
        pass's data-bus gate in ``_schedule_queues``.)  Stall attribution
        keeps no copy: the tracer asks the timing oracle's ``earliest``.
        """
        ta = self._ta
        gate = ta.next_act[rank * self.banks_per_rank + bank_id]
        c = ta.act_floor[rank]
        if c > gate:
            gate = c
        c = ta.group_gate[
            rank * self.bankgroups_per_rank + bank_id // self.banks_per_bankgroup
        ]
        return c if c > gate else gate

    def _record_act(self, rank: int, bank_id: int, now: int) -> None:
        ta = self._ta
        faw = ta.faw[rank]
        faw.append(now)
        while len(faw) > 4:
            faw.popleft()
        any_gate = ta.next_act_any[rank]
        c = now + self.trrd_s_c
        if c > any_gate:
            any_gate = c
            ta.next_act_any[rank] = c
        gi = rank * self.bankgroups_per_rank + bank_id // self.banks_per_bankgroup
        c = now + self.trrd_l_c
        if c > ta.group_gate[gi]:
            ta.group_gate[gi] = c
        fg = faw[0] + self.tfaw_c if len(faw) >= 4 else 0
        ta.act_floor[rank] = any_gate if any_gate > fg else fg

    def act_pressure(self, rank: int, now: int) -> float:
        """Fraction of the rank's ACT-issue budget consumed recently.

        Counts activations inside the current tFAW window: 1.0 means the
        four-activation window is exhausted (every new ACT waits on tFAW),
        0.5 means half the budget is spoken for.  The Concurrent Refresh
        Finder uses this as its ACT-bandwidth pressure signal: above
        :attr:`HiraRefreshEngine.pressure_threshold` it prefers
        refresh-refresh pairs (two refreshes per bank-busy window) over
        interleaving refreshes with scarce demand activations.
        """
        return self.recent_acts(rank, now) / 4.0

    def demand_waiting(self, rank: int, bank_id: int) -> bool:
        """Whether any queued demand request targets the bank.

        The Concurrent Refresh Finder uses this to decide if a bank's
        *time* is contended: pairing two refreshes into one bank-busy
        window only pays off when demand is waiting to use the bank.
        O(1): a membership test on the per-bank FCFS indexes."""
        g = rank * self.banks_per_rank + bank_id
        return g in self._bank_q_read or g in self._bank_q_write

    # ------------------------------------------------------------------
    # Command issue primitives
    # ------------------------------------------------------------------
    def issue_pre(self, rank: int, bank_id: int, now: int) -> None:
        ta = self._ta
        g = rank * self.banks_per_rank + bank_id
        ta.open_row[g] = -1
        c = now + self.trp_c
        if c > ta.next_act[g]:
            ta.next_act[g] = c
        if c > ta.ref_ready[rank]:
            ta.ref_ready[rank] = c
        self._hit_read.discard(g)
        self._hit_write.discard(g)
        self.bus_next = now + 1
        self.stats.pres += 1
        if self.auditor is not None:
            self.auditor.on_pre(now, rank, bank_id)

    def issue_act(self, rank: int, bank_id: int, row: int, now: int) -> None:
        ta = self._ta
        g = rank * self.banks_per_rank + bank_id
        ta.open_row[g] = row
        ta.next_rdwr[g] = now + self.trcd_c
        ta.next_pre[g] = now + self.tras_c
        ta.next_act[g] = now + self.trc_c
        key = (g, row)
        if key in self._row_q_read:
            self._hit_read.add(g)
        if key in self._row_q_write:
            self._hit_write.add(g)
        self._record_act(rank, bank_id, now)
        self.bus_next = now + 1
        self.stats.acts += 1
        self.stats.row_misses += 1
        if self.auditor is not None:
            self.auditor.on_act(now, rank, bank_id, row)

    def issue_hira_act(self, rank: int, bank_id: int, refresh_row: int, target_row: int, now: int) -> None:
        """ACT(refresh_row), PRE, ACT(target_row): refresh-access HiRA.

        The target row's activation effectively starts t1+t2 later; the
        refresh row's charge restoration overlaps it entirely (§3).  The
        sequence occupies the command bus for its full t1+t2 span.
        """
        ta = self._ta
        g = rank * self.banks_per_rank + bank_id
        eff = now + self.hira_gap_c
        ta.open_row[g] = target_row
        ta.next_rdwr[g] = eff + self.trcd_c
        ta.next_pre[g] = eff + self.tras_c
        ta.next_act[g] = eff + self.trc_c
        key = (g, target_row)
        if key in self._row_q_read:
            self._hit_read.add(g)
        if key in self._row_q_write:
            self._hit_write.add(g)
        self._record_act(rank, bank_id, now)
        self._record_act(rank, bank_id, eff)
        # Three commands (ACT, PRE, ACT) occupy three bus slots; the bus is
        # free between them for other banks.
        self.bus_next = now + 3
        self.stats.acts += 2
        self.stats.pres += 1
        self.stats.hira_access_parallelized += 1
        if self.auditor is not None:
            self.auditor.on_hira_op(now, rank, bank_id, refresh_row, target_row, eff)

    def issue_hira_refresh_pair(self, rank: int, bank_id: int, now: int) -> None:
        """Refresh two rows with one HiRA operation (refresh-refresh).

        Bank is busy for t1 + t2 + tRAS + tRP (38 + 14.25 ns at defaults),
        or t1 + t2 + tRC where that is longer; the closing PRE consumes a
        deferred bus slot.
        """
        ta = self._ta
        g = rank * self.banks_per_rank + bank_id
        eff = now + self.hira_gap_c
        close = eff + self.tras_c
        ta.open_row[g] = -1
        ta.next_act[g] = eff + self.refresh_act_gap_c
        ta.next_pre[g] = close
        c = close + self.trp_c
        if c > ta.ref_ready[rank]:
            ta.ref_ready[rank] = c
        self._hit_read.discard(g)
        self._hit_write.discard(g)
        self._record_act(rank, bank_id, now)
        self._record_act(rank, bank_id, eff)
        self.bus_next = now + 3
        heapq.heappush(self._scheduled_closes, (close, rank, bank_id))
        self.stats.acts += 2
        self.stats.pres += 2
        self.stats.hira_refresh_parallelized += 1
        if self.auditor is not None:
            self.auditor.on_hira_op(
                now, rank, bank_id, None, None, eff, close=close
            )

    def issue_solo_refresh(self, rank: int, bank_id: int, now: int) -> None:
        """Refresh one row with a nominal ACT + PRE pair."""
        ta = self._ta
        g = rank * self.banks_per_rank + bank_id
        close = now + self.tras_c
        ta.open_row[g] = -1
        ta.next_act[g] = now + self.refresh_act_gap_c
        ta.next_pre[g] = close
        c = close + self.trp_c
        if c > ta.ref_ready[rank]:
            ta.ref_ready[rank] = c
        self._hit_read.discard(g)
        self._hit_write.discard(g)
        self._record_act(rank, bank_id, now)
        self.bus_next = now + 1
        heapq.heappush(self._scheduled_closes, (close, rank, bank_id))
        self.stats.acts += 1
        self.stats.pres += 1
        self.stats.solo_refreshes += 1
        if self.auditor is not None:
            self.auditor.on_solo_refresh(now, rank, bank_id, close)

    def issue_ref(self, rank_id: int, now: int) -> None:
        """Rank-level REF: the whole rank is unavailable for tRFC."""
        ta = self._ta
        ta.busy_until[rank_id] = now + self.trfc_c
        # A same-bank refresh inside the rank-wide busy window would hit
        # a rank whose refresh control is already occupied.
        c = now + self.trfc_c
        if c > ta.next_refsb[rank_id]:
            ta.next_refsb[rank_id] = c
        b_open = ta.open_row
        b_act = ta.next_act
        hit_read = self._hit_read
        hit_write = self._hit_write
        base = rank_id * self.banks_per_rank
        for g in range(base, base + self.banks_per_rank):
            b_open[g] = -1
            if c > b_act[g]:
                b_act[g] = c
            hit_read.discard(g)
            hit_write.discard(g)
        self.bus_next = now + 1
        self.stats.refs += 1
        if self.auditor is not None:
            self.auditor.on_ref(now, rank_id)

    def issue_refsb(self, rank_id: int, bank_id: int, now: int) -> None:
        """DDR5-style same-bank refresh: one bank unavailable for tRFC_sb.

        The target bank must already be precharged (tRP elapsed since its
        PRE, which ``next_act`` carries); its sibling banks keep serving
        demand — the scheduling advantage of REFsb over the rank-wide REF
        of :meth:`issue_ref`.
        """
        ta = self._ta
        g = rank_id * self.banks_per_rank + bank_id
        ta.open_row[g] = -1
        c = now + self.trfc_sb_c
        if c > ta.next_act[g]:
            ta.next_act[g] = c
        ta.next_refsb[rank_id] = now + self.trefsb_gap_c
        # A rank-level REF during the REFsb would hit a busy bank.
        if c > ta.ref_ready[rank_id]:
            ta.ref_ready[rank_id] = c
        self._hit_read.discard(g)
        self._hit_write.discard(g)
        self.bus_next = now + 1
        self.stats.refs_sb += 1
        if self.auditor is not None:
            self.auditor.on_refsb(now, rank_id, bank_id)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def enqueue(self, req: Request) -> bool:
        is_write = req.is_write
        queue = self.write_q if is_write else self.read_q
        depth = (
            self.config.write_queue_depth if is_write else self.config.read_queue_depth
        )
        if len(queue) >= depth:
            self.stats.queue_full_rejections += 1
            return False
        queue.append(req)
        rank = req.rank
        bank = req.bank
        row = req.row
        g = rank * self.banks_per_rank + bank
        req.gbank = g
        req.ggroup = rank * self.bankgroups_per_rank + bank // self.banks_per_bankgroup
        req.seq = self._seq
        self._seq += 1
        if is_write:
            bank_q = self._bank_q_write
            row_q = self._row_q_write
            hit = self._hit_write
        else:
            bank_q = self._bank_q_read
            row_q = self._row_q_read
            hit = self._hit_read
        dq = bank_q.get(g)
        if dq is None:
            bank_q[g] = deque((req,))
        else:
            dq.append(req)
        key = (g, row)
        dq = row_q.get(key)
        if dq is None:
            row_q[key] = deque((req,))
        else:
            dq.append(req)
        if self._ta.open_row[g] == row:
            hit.add(g)
        self._epoch += 1
        self._progress_at = 0
        return True

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _active_queues(self) -> tuple[list[Request], list[Request]]:
        if self._draining_writes:
            if len(self.write_q) <= self.config.write_drain_low:
                self._draining_writes = False
                # A priority flip is a scheduling-state mutation: bump the
                # epoch so this call records no wake bound (the flip, and
                # any flip-every-call hysteresis parity, replays exactly).
                self._epoch += 1
        elif len(self.write_q) >= self.config.write_drain_high or (
            not self.read_q and self.write_q
        ):
            self._draining_writes = True
            self._epoch += 1
        if self._draining_writes:
            return self._writes_first
        return self._reads_first

    def schedule(self, now: int) -> bool:
        """Try to issue one command at cycle ``now``; True if issued.

        Self-memoizing: each sub-pass (the deferred closes, the engine's
        ``urgent``, the demand queues) either issues or returns the exact
        cycle its gates next open, in the same loop that checked them.
        When a call issues nothing and — proven by an unchanged
        ``_epoch`` — mutates nothing, the minimum of those folds is
        recorded in ``_progress_at`` and the system loop skips the
        controller until that cycle; no engine method runs after
        ``urgent``.  It is the only memo the loop consults, and the bound
        is never late (rule 4 may make it early) under this contract:

        1. An issue ends the call, and a call that issued records no
           wake (the issue primitives touch neither memo field).
        2. A non-issuing mutation inside ``schedule`` bumps ``_epoch``
           (``mark_dirty()``), so the call records no wake.
        3. A mutation outside ``schedule`` (``enqueue``, a test writing a
           timing column) resets ``_progress_at`` to 0 (``mark_dirty()``).
        4. A non-issuing, non-mutating ``urgent`` leaves its wake in
           ``_engine_wake``; ``urgent`` is skipped below it until
           ``mark_dirty()`` clears it.  Demand commands keep it a lower
           bound: one to a bank the engine waits on needs the gate the
           engine folded, and every other gate it reads only moves
           later.  Elastic's gates read ``read_q``: ``wake_reusable``.

        So the run equals one that calls ``schedule`` on every cycle.
        ``dense_loop()`` in ``tests/test_kernel_equivalence.py`` checks
        the contract on every cycle the memo would skip.  Traced runs
        skip the same cycles: the tracer charges the skipped ones at its
        next entry point (see ``SimTracer.flush``).

        Bound rule: the demand pass receives the wake folded so far (the
        deferred closes and ``urgent``) as ``bound``, and may skip any
        candidate whose own bank timer, a lower bound of its gate, is
        both past ``now`` and at or past the bound: such a candidate can
        neither issue nor lower the final minimum.  Its wake is therefore
        exact only as ``min(bound, ·)``, which is how it is folded here.
        ``test_dense_loop_catches_planted_bound`` shows the dense loop
        catches a bound below the folded one.
        """
        if now < self.bus_next:
            # Nothing below the bus gate can run or mutate: this call
            # is provably a no-op until the command bus frees.
            self._progress_at = self.bus_next
            if self.tracer is not None:
                self.tracer.on_stall(now)
            return False
        epoch = self._epoch
        wake = _FAR_FUTURE
        # Deferred closing PREs of refresh operations take precedence.
        # The heap keeps the earliest close on top; a due close consumes
        # one bus slot (its bank state was already applied at issue time).
        closes = self._scheduled_closes
        if closes:
            c = closes[0][0]
            if c <= now:
                heapq.heappop(closes)
                self.bus_next = now + 1
                if self.tracer is not None:
                    # Issues no record: close the skipped span here.
                    self.tracer.flush(now)
                return True
            wake = c
        w = self._engine_wake
        if now >= w:
            engine = self.engine
            w = engine.urgent(now)
            if w == _ISSUED:
                return True
            if self._epoch == epoch and engine.wake_reusable:
                self._engine_wake = w
        if w < wake:
            wake = w
        queue_a, queue_b = self._active_queues()
        w = self._schedule_queues(queue_a, queue_b, now, wake)
        if w == _ISSUED:
            return True
        if w < wake:
            wake = w
        if self._epoch == epoch:
            # Issued nothing, mutated nothing: the engine's and the
            # queues' gate folds hold until the next mutation (rule 3
            # resets _progress_at).  A bound <= now just means no
            # skipping.
            self._progress_at = wake
        if self.tracer is not None:
            self.tracer.on_stall(now)
        return False

    def _schedule_queues(
        self, queue_a: list[Request], queue_b: list[Request], now: int, bound: int
    ) -> int:
        """Try to issue from the two demand queues, in priority order.

        Returns ``_ISSUED`` on success; otherwise a wake ``w`` over both
        queues such that ``min(bound, w)`` is exactly the earliest cycle
        any of their banks' gates opens, or ``bound`` if that is sooner.
        Gates are folded by the same checks that decide issue, and the
        value is valid while the enclosing ``schedule`` call stays
        mutation-free (see its memo contract).  ``bound`` is the wake
        ``schedule`` has folded so far; each fold lowers it, and a
        candidate whose own bank timer is past ``now`` and at or past it
        is skipped before its head is read (the bound rule in
        ``schedule``), as is FR's hit loop when the data-bus gate alone
        is.  Skipping changes neither the issue choice nor
        ``min(bound, w)``.  Neither pass walks a queue list: FR visits the
        hit-bank set, FCFS the per-bank head index.  Bit-identical to
        queue-order scans: queue order equals ascending ``seq``, so
        "first matching queue entry" and "minimum head ``seq`` over
        candidate banks" select the same request, and the per-bank gate
        folds replicate the per-entry checks exactly.  One call handles
        both queues so the array locals are hoisted once per schedule
        visit instead of once per queue.
        """
        wake = _FAR_FUTURE
        ta = self._ta
        b_open = ta.open_row
        r_busy = ta.busy_until
        banks_per_rank = self.banks_per_rank
        blocked = self.blocked_ranks
        bblocked = self.blocked_banks
        b_rdwr = ta.next_rdwr
        b_act = ta.next_act
        b_pre = ta.next_pre
        act_floor = ta.act_floor
        group_gate = ta.group_gate
        data_bus_next = self.data_bus_next
        last_write = self._data_bus_last_write
        write_q = self.write_q
        for queue in (queue_a, queue_b):
            if not queue:
                continue
            is_write_q = queue is write_q
            if is_write_q:
                bank_q = self._bank_q_write
                hit = self._hit_write
                row_q = self._row_q_write
                burst_offset = self.tcwl_c
            else:
                bank_q = self._bank_q_read
                hit = self._hit_read
                row_q = self._row_q_read
                burst_offset = self.tcl_c
            # First pass: FR — oldest ready row hit, via the hit-bank
            # index.  Queues are homogeneous (reads or writes), so the
            # data-bus gate is one value for every candidate: bursts start
            # a fixed tCL (reads) / tCWL (writes) after the column command
            # — plus the tRTW/tWTR turnaround when the bus last carried
            # the opposite direction.  Each hit bank's row deque head is
            # its oldest hit, so the min-seq head over ready banks is the
            # queue-order pick.
            if hit:
                # Earliest burst start: the bus frees at data_bus_next,
                # plus tRTW/tWTR after a burst in the other direction.
                free = data_bus_next
                if last_write is not None and last_write != is_write_q:
                    free += self.twtr_c if last_write else self.trtw_c
                dbus_gate = free - burst_offset
            # The bound rule: each hit bank's gate is at least the data-bus
            # gate, so scan them only if it can issue or lower the wake.
            if hit and (dbus_gate <= now or dbus_gate < bound):
                best = None
                best_seq = _FAR_FUTURE
                for g in hit:
                    rank = g // banks_per_rank
                    if rank in blocked:
                        continue
                    if bblocked and (rank, g - rank * banks_per_rank) in bblocked:
                        continue
                    gate = dbus_gate
                    c = b_rdwr[g]
                    if c > gate:
                        gate = c
                    c = r_busy[rank]
                    if c > gate:
                        gate = c
                    if gate > now:
                        if gate < wake:
                            wake = gate
                            if gate < bound:
                                bound = gate
                        continue
                    req = row_q[(g, b_open[g])][0]
                    if req.seq < best_seq:
                        best_seq = req.seq
                        best = req
                if best is not None:
                    self._issue_column_access(queue, best, now)
                    return _ISSUED
            # Second pass: FCFS — advance the oldest request's bank state.
            # Only the oldest request per bank can act: whether an ACT or
            # a PRE is legal depends on bank/rank state alone, and a
            # younger conflicting request is always shadowed by the older
            # one (the open-row keep-alive check spans the whole queue).
            # The per-bank index yields each bank's head directly; the
            # issuable head with the smallest seq is the first issuable
            # one in queue order.  (Dict order is not queue order: a bank
            # emptied and refilled sits ahead of older heads.)
            best = None
            best_seq = _FAR_FUTURE
            for g, dq in bank_q.items():
                if g in hit:
                    # The FR pass owns the bank (and folds its wake): the
                    # head targets the open row, or is kept alive behind
                    # a queued hit to it.
                    continue
                # Not a hit bank, so an open bank's head is a conflict:
                # its own timer is tRC/tRP (closed) or tRAS/tRTP/tWR
                # (open), a lower bound of the full gate (the bound rule).
                orow = b_open[g]
                gate = b_act[g] if orow < 0 else b_pre[g]
                if gate > now and gate >= bound:
                    continue
                head = dq[0]
                rank = head.rank
                if rank in blocked:
                    continue
                if bblocked and (rank, g - rank * banks_per_rank) in bblocked:
                    continue
                if orow < 0:
                    # act_allowed_at, inlined (hot scan), plus the
                    # rank-busy gate: tRC/tRP/refresh busy, tFAW,
                    # tRRD_S/tRRD_L and tRFC in one fold.
                    c = act_floor[rank]
                    if c > gate:
                        gate = c
                    c = group_gate[head.ggroup]
                    if c > gate:
                        gate = c
                c = r_busy[rank]
                if c > gate:
                    gate = c
                if gate <= now:
                    if head.seq < best_seq:
                        best_seq = head.seq
                        best = head
                elif gate < wake:
                    wake = gate
                    if gate < bound:
                        bound = gate
            if best is not None:
                g = best.gbank
                rank = best.rank
                bank_id = g - rank * banks_per_rank
                if b_open[g] >= 0:
                    self.issue_pre(rank, bank_id, now)
                    return _ISSUED
                refresh_row = None
                if self.faw_ok_double(rank, now):
                    refresh_row = self.engine.on_act(best, now)
                if refresh_row is not None:
                    self.issue_hira_act(rank, bank_id, refresh_row, best.row, now)
                else:
                    self.issue_act(rank, bank_id, best.row, now)
                self.engine.on_demand_act(best, now)
                return _ISSUED
        return wake

    def _issue_column_access(self, queue: list[Request], req: Request, now: int) -> None:
        queue.remove(req)  # identity comparison: Request has eq=False
        g = req.gbank
        rank = req.rank
        bank_id = g - rank * self.banks_per_rank
        if req.is_write:
            bank_q = self._bank_q_write
            row_q = self._row_q_write
            hit = self._hit_write
        else:
            bank_q = self._bank_q_read
            row_q = self._row_q_read
            hit = self._hit_read
        dq = bank_q[g]
        if dq[0] is req:
            dq.popleft()
        else:
            dq.remove(req)  # keep-alive: FR served a hit behind the head
        if not dq:
            del bank_q[g]
        key = (g, req.row)
        dq = row_q[key]
        dq.popleft()  # req: FR always picks a row deque's head (oldest hit)
        if not dq:
            del row_q[key]
            hit.discard(g)
        ta = self._ta
        self.bus_next = now + 1
        if req.is_write:
            # Write recovery: the bank may not precharge until tWR after
            # the write data burst (WR + CWL + BL) has fully landed in the
            # sense amplifiers.  The burst occupies the channel's data bus
            # for tBL starting exactly tCWL after the command (the issue
            # gate in `_schedule_queues` guarantees the bus is free then).
            burst_end = now + self.tcwl_c + self.tbl_c
            self.data_bus_next = burst_end
            self._data_bus_last_write = True
            c = burst_end + self.twr_c
            if c > ta.next_pre[g]:
                ta.next_pre[g] = c
            req.complete_cycle = burst_end
            self.stats.writes_served += 1
        else:
            # The read burst starts exactly tCL after the command (the
            # data-bus issue gate guarantees the bus is free by then) and
            # the bank may not precharge until tRTP after the command.
            start = now + self.tcl_c
            self.data_bus_next = start + self.tbl_c
            self._data_bus_last_write = False
            c = now + self.trtp_c
            if c > ta.next_pre[g]:
                ta.next_pre[g] = c
            req.complete_cycle = start + self.tbl_c
            self.stats.reads_served += 1
            self.completions.append((req.complete_cycle, req))
        self.stats.row_hits += 1
        if self.auditor is not None:
            self.auditor.on_col(now, rank, bank_id, req.is_write)
