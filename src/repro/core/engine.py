"""HiRA-MC: the Concurrent Refresh Finder wired into the scheduler (§5).

The engine performs the paper's three actions in decreasing priority:

1. **Refresh-access parallelization** — when the scheduler activates a
   demand row, ride a pending refresh on the activation as a HiRA
   operation (Fig. 8, Case 1).
2. **Refresh-refresh parallelization** — when a queued refresh approaches
   its deadline (within tRC), pair it with another queued refresh to the
   same bank whose subarray is isolated (Fig. 8, Case 2).
3. **Solo refresh at the deadline** — a nominal ACT+PRE if neither
   parallelization is possible.

Periodic refresh requests are generated per bank at the rate
``tREFW / rows_per_bank`` with per-bank staggered offsets (§5.1.1);
preventive (PARA) requests enter the PR-FIFO with a deadline of
``now + tRefSlack`` (§5.1.2).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.core.pr_fifo import PreventiveRequest, PrFifo
from repro.core.refptr_table import RefPtrTable
from repro.core.spt import SubarrayPairsTable
from repro.sim.controller import _ISSUED, RefreshEngine
from repro.sim.request import Request

_FAR_FUTURE = 1 << 60


@dataclass(slots=True)
class _BankPeriodicState:
    """Lazily generated periodic refresh stream for one (rank, bank)."""

    period: float
    next_gen: float
    pending: deque = field(default_factory=deque)  # generation cycles
    sa_ptr: int = 0
    #: Rows refreshed *ahead* of the periodic schedule by eager pairing;
    #: each credit cancels one future generated request.
    credit: int = 0


class HiraRefreshEngine(RefreshEngine):
    """HiRA-MC's refresh policy, pluggable into the memory controller.

    ``pressure_threshold`` and ``eager_pairing`` make the Concurrent
    Refresh Finder ACT-bandwidth aware: when the rank's recent activation
    rate approaches the tRRD/tFAW budget (see
    :meth:`repro.sim.controller.MemoryController.act_pressure`; pressure
    quantizes to quarters and pairs are only tFAW-legal at <= 0.5, so
    thresholds above 0.5 keep the riding-deferral but never pair), the
    finder prefers refresh-refresh pairs — which hide both refresh ACTs in
    a single tRC-long bank-busy window — over refresh-demand interleaving
    that burns scarce demand ACT slots.  Eager pairing lets a due refresh
    pull the bank's *next* periodic request forward (when demand is queued
    for the bank) so it forms a pair; refreshing a row early is always
    retention-safe, and each pulled-forward row cancels one future request
    via ``credit``.
    """

    def __init__(
        self,
        tref_slack_acts: int = 2,
        coverage: float = 0.32,
        stagger: bool = True,
        disable_access_parallelization: bool = False,
        disable_refresh_parallelization: bool = False,
        pr_fifo_depth: int = 4,
        pressure_threshold: float = 0.5,
        eager_pairing: bool = True,
    ):
        super().__init__()
        self.tref_slack_acts = tref_slack_acts
        self.coverage = coverage
        self.stagger = stagger
        self.disable_access_parallelization = disable_access_parallelization
        self.disable_refresh_parallelization = disable_refresh_parallelization
        self.pr_fifo_depth = pr_fifo_depth
        self.pressure_threshold = pressure_threshold
        self.eager_pairing = eager_pairing

    # ------------------------------------------------------------------
    def attach(self, mc) -> None:
        super().attach(mc)
        config = mc.config
        geom = config.geometry
        self.slack_c = self.tref_slack_acts * mc.trc_c
        self.spt = SubarrayPairsTable(geom, coverage=self.coverage)
        self.refptr = {r: RefPtrTable(geom) for r in range(config.ranks_per_channel)}
        self.pr = {
            r: PrFifo(geom.banks_per_rank, depth=self.pr_fifo_depth)
            for r in range(config.ranks_per_channel)
        }
        #: Same-bank granularity: the periodic stream becomes one REFsb
        #: per bank per tREFI (each pending entry is a whole REFsb command
        #: scheduled with tRefSlack, overlapped with demand to *other*
        #: banks); preventive requests stay row-granular HiRA work.
        self._same_bank = config.refresh_granularity == "same_bank"
        #: Banks committed to an imminent REFsb (demand deferred).
        self._sb_blocked: set[tuple[int, int]] = set()
        period = config.per_bank_refresh_interval_cycles
        if self._same_bank:
            period = float(mc.trefi_c)
        self._periodic: dict[tuple[int, int], _BankPeriodicState] = {}
        self._gen_heap: list[tuple[int, int, int]] = []
        #: Banks that currently hold at least one pending refresh request;
        #: keeps deadline scans O(active banks) instead of O(all banks).
        self._active: set[tuple[int, int]] = set()
        #: Memoized min raw deadline across active banks.  Raw deadlines
        #: only change when a pending queue is pushed or popped (they do
        #: not drift with time), so the memo is valid until the structure
        #: changes — letting ``urgent`` skip its scan while nothing is due.
        self._struct_dirty = True
        self._min_deadline = _FAR_FUTURE
        #: Cache of each active bank's raw deadline (min of periodic head +
        #: slack and PR-FIFO head), maintained at the same push/pop
        #: chokepoints that maintain ``_active``.  Consumers fall back to
        #: the formula for keys injected around the cache (tests poke
        #: engine internals directly).
        self._bank_deadline: dict[tuple[int, int], int] = {}
        total_banks = config.ranks_per_channel * geom.banks_per_rank
        index = 0
        for rank in range(config.ranks_per_channel):
            for bank in range(geom.banks_per_rank):
                offset = (index * period / total_banks) if self.stagger else 0.0
                state = _BankPeriodicState(period=period, next_gen=offset)
                self._periodic[(rank, bank)] = state
                heapq.heappush(self._gen_heap, (int(offset), rank, bank))
                index += 1

    # ------------------------------------------------------------------
    # Periodic request generation (PeriodicRC, §5.1.1)
    # ------------------------------------------------------------------
    def _advance_generation(self, now: int) -> None:
        heap = self._gen_heap
        if not heap or heap[0][0] > now:
            return
        while heap and heap[0][0] <= now:
            __, rank, bank = heapq.heappop(heap)
            state = self._periodic[(rank, bank)]
            if state.credit > 0:
                # This row was already refreshed ahead of schedule by an
                # eager refresh-refresh pair; consume the credit instead of
                # generating a request.
                state.credit -= 1
            else:
                state.pending.append(int(state.next_gen))
                self.mc.stats.periodic_generated += 1
                key = (rank, bank)
                self._active.add(key)
                if len(state.pending) == 1:
                    deadline = int(state.next_gen) + self.slack_c
                    head = self.pr[rank].head(bank)
                    if head is not None and head.deadline < deadline:
                        deadline = head.deadline
                    self._bank_deadline[key] = deadline
            state.next_gen += state.period
            heapq.heappush(heap, (int(state.next_gen), rank, bank))
        # New pending requests mean new deadlines: invalidate the schedule
        # memo (generation can fire outside a command issue).
        self._struct_dirty = True
        self.mc.mark_dirty()

    def _refresh_active(self, rank: int, bank: int) -> None:
        """Recompute a bank's membership in the active set (and its cached
        raw deadline)."""
        self._struct_dirty = True
        # Every caller pops a pending refresh first, which changes the
        # deadlines urgent folds its wake from; marking here (the shared
        # pop chokepoint) keeps the memo contract local instead of relying
        # on each caller's subsequent command issue to set the flag.
        self.mc.mark_dirty()
        key = (rank, bank)
        deadline = self._raw_deadline(key)
        if deadline != _FAR_FUTURE:
            self._active.add(key)
            self._bank_deadline[key] = deadline
        else:
            self._active.discard(key)
            self._bank_deadline.pop(key, None)

    def _raw_deadline(self, key: tuple[int, int]) -> int:
        """A bank's earliest pending deadline, straight from the queues."""
        pending = self._periodic[key].pending
        head = self.pr[key[0]].head(key[1])
        deadline = pending[0] + self.slack_c if pending else _FAR_FUTURE
        if head is not None and head.deadline < deadline:
            deadline = head.deadline
        return deadline

    def _periodic_deadline(self, state: _BankPeriodicState) -> int:
        return state.pending[0] + self.slack_c if state.pending else _FAR_FUTURE

    # ------------------------------------------------------------------
    # PreventiveRC (§5.1.2)
    # ------------------------------------------------------------------
    def on_demand_act(self, req: Request, now: int) -> None:
        self._para_enqueue(req.rank, req.bank, req.row, now)

    def _para_enqueue(self, rank: int, bank: int, activated_row: int, now: int) -> None:
        """PARA draw for an observed activation; victims join the PR-FIFO.

        Only demand activations are observed: refresh activations are
        controller-generated and rate-bounded per row, so they cannot be
        leveraged by an attacker (and observing them would make the
        defense's own refreshes feed it).
        """
        victim = self.para_observe_act(rank, bank, activated_row, now)
        if victim is None:
            return
        self._requeue_row(rank, bank, victim, now + self.slack_c)

    # ------------------------------------------------------------------
    # Refresh-access parallelization (Fig. 8, Case 1)
    # ------------------------------------------------------------------
    def on_act(self, req: Request, now: int) -> int | None:
        if self.disable_access_parallelization:
            return None
        self._advance_generation(now)
        rank, bank = req.rank, req.bank
        sa_demand = self.spt.subarray_of_row(req.row)
        periodic = self._periodic[(rank, bank)]
        preventive_head = self.pr[rank].head(bank)
        if self._same_bank:
            # Periodic items are whole REFsb commands, not rows: only a
            # preventive (victim-row) refresh can ride a demand ACT.
            if preventive_head is not None:
                sa_victim = self.spt.subarray_of_row(preventive_head.row)
                if self.spt.isolated(sa_victim, sa_demand):
                    self.pr[rank].pop(bank)
                    self._refresh_active(rank, bank)
                    if self.mc.tracer is not None:
                        self.mc.tracer.on_decision(
                            "ride", now, rank, bank, preventive_head.row
                        )
                    return preventive_head.row
            return None
        periodic_deadline = self._periodic_deadline(periodic)
        preventive_deadline = preventive_head.deadline if preventive_head else _FAR_FUTURE
        # ACT-bandwidth awareness: a refresh-access HiRA op spends a second
        # activation slot on this rank right now.  When the rank is already
        # tRRD/tFAW-bound, keep *periodic* refreshes queued for
        # refresh-refresh pairing at their deadline (two refreshes in one
        # bank-busy window) instead of stealing scarce demand ACT slots.
        # Preventive refreshes still ride: they are pinned to victim rows
        # and pair far less often, so riding remains their cheapest path.
        defer_periodic = (
            not self.disable_refresh_parallelization
            and self.mc.act_pressure(rank, now) >= self.pressure_threshold
            and periodic_deadline > now + self.mc.trc_c
        )

        # Try the earliest-deadline request first, then the other kind.
        order = (
            ("periodic", "preventive")
            if periodic_deadline <= preventive_deadline
            else ("preventive", "periodic")
        )
        for kind in order:
            if kind == "periodic" and periodic.pending and not defer_periodic:
                partner = self.spt.partner_subarray((rank, bank), sa_demand)
                if partner is not None:
                    periodic.pending.popleft()
                    self._refresh_active(rank, bank)
                    row = self.refptr[rank].advance(bank, partner)
                    if self.mc.tracer is not None:
                        self.mc.tracer.on_decision("ride", now, rank, bank, row)
                    return row
            elif kind == "preventive" and preventive_head is not None:
                sa_victim = self.spt.subarray_of_row(preventive_head.row)
                if self.spt.isolated(sa_victim, sa_demand):
                    self.pr[rank].pop(bank)
                    self._refresh_active(rank, bank)
                    if self.mc.tracer is not None:
                        self.mc.tracer.on_decision(
                            "ride", now, rank, bank, preventive_head.row
                        )
                    return preventive_head.row
        return None

    # ------------------------------------------------------------------
    # Deadline enforcement (Fig. 8, Case 2)
    # ------------------------------------------------------------------
    def urgent(self, now: int) -> int:
        # Re-admit spilled preventive refreshes as PR-FIFO slots free up,
        # so they regain deadline-driven scheduling (and keep the original
        # deadlines they were spilled with).  Entries whose bank FIFO is
        # still full stay spilled, in order, without blocking other banks.
        if self._preventive:
            spilled = deque()
            for rank, bank_id, row, deadline in self._preventive:
                if self.pr[rank].push(
                    bank_id, PreventiveRequest(row=row, deadline=deadline)
                ):
                    key = (rank, bank_id)
                    self._active.add(key)
                    self._bank_deadline[key] = self._raw_deadline(key)
                else:
                    spilled.append((rank, bank_id, row, deadline))
            # Re-admitted entries regain deadline-driven scheduling: the
            # schedule memo must see the new deadlines.  Marking
            # unconditionally (even when every FIFO was still full and
            # ``spilled`` is identical) only forgoes skipping on this
            # already-rare spill path, and keeps the mutation and its mark
            # on one branch.
            self._preventive = spilled
            self._struct_dirty = True
            self.mc.mark_dirty()
        wake = _FAR_FUTURE
        if self._preventive:  # PR-FIFO overflow: empty on almost every call
            wake = self._service_preventive(now)
            if wake == _ISSUED:
                return _ISSUED
        # The next generation pop is itself a mutation: wake for it even
        # when the generated request's deadline lies further out.
        heap = self._gen_heap
        if heap and heap[0][0] <= now:
            self._advance_generation(now)
        if heap and heap[0][0] < wake:
            wake = heap[0][0]
        mc = self.mc
        trc = mc.trc_c
        cutoff = now + trc
        bank_deadline = self._bank_deadline
        raw_deadline = self._raw_deadline
        if self._struct_dirty:
            soonest = _FAR_FUTURE
            for key in self._active:
                deadline = bank_deadline.get(key)
                if deadline is None:
                    deadline = raw_deadline(key)
                if deadline < soonest:
                    soonest = deadline
            self._min_deadline = soonest
            self._struct_dirty = False
        md = self._min_deadline
        if md > cutoff:
            # Nothing approaches its deadline: the scan below would issue
            # nothing (raw deadlines move only on push/pop, never with
            # time, so the memo stays exact until the structure changes).
            # The scan skips every bank until the earliest deadline is
            # tRC away.
            if md != _FAR_FUTURE and md - trc < wake:
                wake = md - trc
            return wake
        ta = mc._ta
        banks_per_rank = mc.banks_per_rank
        groups = mc.bankgroups_per_rank
        bpg = mc.banks_per_bankgroup
        b_open = ta.open_row
        r_busy = ta.busy_until
        act_floor = ta.act_floor
        group_gate = ta.group_gate
        same_bank = self._same_bank
        # Iterating the set directly is safe: the loop either leaves the
        # set untouched (continue) or mutates it and returns immediately.
        for key in self._active:
            deadline = bank_deadline.get(key)
            if deadline is None:
                deadline = raw_deadline(key)
            if deadline > cutoff:
                gate = deadline - trc
            elif same_bank:
                gate = self._sb_handle_due(key, now)
                if gate == _ISSUED:
                    return _ISSUED
            else:
                rank, bank_id = key
                g = rank * banks_per_rank + bank_id
                gate = r_busy[rank]
                if b_open[g] >= 0:
                    c = ta.next_pre[g]
                    if c > gate:
                        gate = c
                    if gate <= now:
                        mc.issue_pre(rank, bank_id, now)
                        return _ISSUED
                else:
                    # act_allowed_at, inlined (hot scan).
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
                        if now > deadline + trc:
                            mc.stats.deadline_misses += 1
                        self._perform_due_refresh(rank, bank_id, now)
                        return _ISSUED
            if gate < wake:
                wake = gate
        return wake

    def _sb_handle_due(self, key: tuple[int, int], now: int) -> int:
        """Due refresh work for one bank in same-bank mode.

        A due periodic item is one REFsb: commit the bank (defer demand so
        a hot row-hit stream cannot keep it open past the deadline),
        precharge it, wait out tRP and the rank's tREFSB_GAP, then issue.
        A due preventive item stays a row-granular nominal refresh with
        the usual ACT gates (and may still pair with a second preventive).
        Returns ``_ISSUED``, else the gate of the bank's next step.
        """
        mc = self.mc
        rank, bank_id = key
        head = self.pr[rank].head(bank_id)
        periodic = self._periodic[key]
        periodic_deadline = self._periodic_deadline(periodic)
        preventive_deadline = head.deadline if head is not None else _FAR_FUTURE
        refsb_first = periodic_deadline <= preventive_deadline
        if refsb_first and key not in self._sb_blocked:
            self._sb_blocked.add(key)
            mc.blocked_banks.add(key)
            mc.mark_dirty()
        ta = mc._ta
        g = rank * mc.banks_per_rank + bank_id
        gate = ta.busy_until[rank]
        if ta.open_row[g] >= 0:
            c = ta.next_pre[g]
            if c > gate:
                gate = c
            if gate <= now:
                mc.issue_pre(rank, bank_id, now)
                return _ISSUED
            return gate
        if refsb_first:
            # next_act carries tRP-after-PRE and any previous REFsb busy
            # window; next_refsb is the rank's REFsb spacing.
            c = ta.next_act[g]
            if c > gate:
                gate = c
            c = ta.next_refsb[rank]
            if c > gate:
                gate = c
            if gate > now:
                return gate
            if now > periodic_deadline + mc.trc_c:
                mc.stats.deadline_misses += 1
            periodic.pending.popleft()
            self._refresh_active(rank, bank_id)
            self._sb_blocked.discard(key)
            mc.blocked_banks.discard(key)
            mc.issue_refsb(rank, bank_id, now)
            return _ISSUED
        c = mc.act_allowed_at(rank, bank_id)
        if c > gate:
            gate = c
        if gate > now:
            return gate
        if now > preventive_deadline + mc.trc_c:
            mc.stats.deadline_misses += 1
        self._perform_due_refresh(rank, bank_id, now)
        return _ISSUED

    def _pop_first_due(self, rank: int, bank_id: int) -> int | None:
        """Pop the earliest-deadline pending refresh; returns its row."""
        periodic = self._periodic[(rank, bank_id)]
        head = self.pr[rank].head(bank_id)
        periodic_deadline = self._periodic_deadline(periodic)
        preventive_deadline = head.deadline if head else _FAR_FUTURE
        if periodic_deadline == _FAR_FUTURE and preventive_deadline == _FAR_FUTURE:
            return None
        if preventive_deadline <= periodic_deadline:
            row = self.pr[rank].pop(bank_id).row
        else:
            periodic.pending.popleft()
            subarray = periodic.sa_ptr % self.spt.geometry.subarrays_per_bank
            periodic.sa_ptr = subarray + 1
            row = self.refptr[rank].advance(bank_id, subarray)
        self._refresh_active(rank, bank_id)
        return row

    def _pop_partner_for(
        self, rank: int, bank_id: int, sa_first: int, now: int
    ) -> int | None:
        """A second pending refresh whose subarray is isolated from the first.

        A periodic request can refresh *any* subarray next (the Concurrent
        Refresh Finder picks one where parallelization is possible,
        §5.1.3); a preventive request is pinned to its victim row and pairs
        only if that row's subarray happens to be isolated.

        When no second request is pending but the rank is ACT-bandwidth
        bound *and* demand is queued for this bank, the finder pulls the
        bank's *next* periodic request forward (refreshing ahead of
        schedule is always retention-safe) so the due refresh still forms
        a pair: two rows per bank-busy window instead of two separate
        windows competing with the waiting demand for the bank's time.
        """
        head = self.pr[rank].head(bank_id)
        if head is not None and self.spt.isolated(
            self.spt.subarray_of_row(head.row), sa_first
        ):
            row = self.pr[rank].pop(bank_id).row
            self._refresh_active(rank, bank_id)
            return row
        if self._same_bank:
            # Periodic items are REFsb commands, not rows: neither the
            # pending queue nor eager pull-forward can supply a partner.
            return None
        periodic = self._periodic[(rank, bank_id)]
        if periodic.pending:
            partner = self.spt.partner_subarray((rank, bank_id), sa_first)
            if partner is not None:
                periodic.pending.popleft()
                self._refresh_active(rank, bank_id)
                return self.refptr[rank].advance(bank_id, partner)
        elif (
            self.eager_pairing
            and self.mc.act_pressure(rank, now) >= self.pressure_threshold
            and self.mc.demand_waiting(rank, bank_id)
        ):
            # Pull-forward pays twice: the rank is ACT-bound (a pair costs
            # one urgent intervention instead of two) and demand is queued
            # for this bank (one t1+t2+tRAS+tRP busy window instead of two
            # tRAS+tRP windows frees real bank time for those requests).
            partner = self.spt.partner_subarray((rank, bank_id), sa_first)
            if partner is not None:
                periodic.credit += 1
                row = self.refptr[rank].advance(bank_id, partner)
                if self.mc.tracer is not None:
                    self.mc.tracer.on_decision("pull-forward", now, rank, bank_id, row)
                return row
        return None

    def _perform_due_refresh(self, rank: int, bank_id: int, now: int) -> None:
        mc = self.mc
        first = self._pop_first_due(rank, bank_id)
        if first is None:
            return
        # A HiRA pair issues two ACTs: it needs two free tFAW slots (§5.2).
        if not self.disable_refresh_parallelization and mc.faw_ok_double(rank, now):
            partner = self._pop_partner_for(
                rank, bank_id, self.spt.subarray_of_row(first), now
            )
            if partner is not None:
                if mc.tracer is not None:
                    mc.tracer.on_decision("pair", now, rank, bank_id, partner)
                mc.issue_hira_refresh_pair(rank, bank_id, now)
                return
        mc.issue_solo_refresh(rank, bank_id, now)

    def _requeue_row(self, rank: int, bank_id: int, row: int, deadline: int) -> None:
        """Put a preventive refresh under deadline control.

        The single entry point for (re)queueing a victim row: into the
        PR-FIFO when it has room, else spilled to the overflow queue
        (serviced as soon as the bank allows, like PARA without HiRA-MC).
        The request keeps the deadline it was *given*: re-stamping with
        ``now + slack_c`` on every requeue would silently extend the
        security deadline each time the refresh bounces.
        """
        request = PreventiveRequest(row=row, deadline=deadline)
        if self.pr[rank].push(bank_id, request):
            key = (rank, bank_id)
            self._active.add(key)
            self._bank_deadline[key] = self._raw_deadline(key)
            self._struct_dirty = True
            self.mc.mark_dirty()
        else:
            self._queue_preventive(rank, bank_id, row, deadline)

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    def pending_periodic(self) -> int:
        return sum(len(s.pending) for s in self._periodic.values())
