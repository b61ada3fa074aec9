"""Elastic refresh: a scheduling-only baseline from the related work.

§13 contrasts HiRA with memory-access-scheduling techniques [161] that
delay REF commands into DRAM idle time: DDR4 allows postponing up to eight
REF commands (the 9 × tREFI debit limit).  This engine implements that
policy so benchmarks can compare HiRA against the strongest scheduling-only
baseline: REF is deferred while demand requests are pending, but never
beyond the postponement budget.

With ``refresh_granularity="same_bank"`` the same policy applies per bank:
each bank's REFsb may be postponed up to eight tREFI intervals while reads
are queued, tracked by a per-bank debt counter.
"""

from __future__ import annotations

import heapq

from repro.sim.controller import BaselineRefreshEngine, _FAR_FUTURE


class ElasticRefreshEngine(BaselineRefreshEngine):
    """Defer REF into idle time, within DDR4's 8-REF postponement budget."""

    def __init__(self, max_postponed: int = 8):
        super().__init__()
        if max_postponed < 0:
            raise ValueError("max_postponed must be non-negative")
        self.max_postponed = max_postponed
        self._debt: list[int] = []

    def attach(self, mc) -> None:
        super().attach(mc)
        n_ranks = mc.config.ranks_per_channel
        self._debt = [0] * n_ranks
        #: Ranks that have started a REF sequence (precharge + tRP wait);
        #: once committed, newly arriving reads no longer cancel it.
        self._committed = [False] * n_ranks
        if self._same_bank:
            #: Per-bank postponement debt (same_bank granularity).
            self._sb_debt = dict.fromkeys(self._sb_due, 0)
            #: Due-but-postponed banks: key -> forced-promotion cycle (the
            #: cycle the bank's postponement budget runs out).  Kept out of
            #: ``_sb_heap`` so the per-cycle promote check never re-heapifies
            #: deferred entries; the memoized minimum makes the check O(1)
            #: while demand is queued and nothing has hit its limit.
            self._sb_deferred: dict[tuple[int, int], int] = {}
            self._sb_forced_min = _FAR_FUTURE

    # -- Same-bank (REFsb) overrides ---------------------------------------
    def _sb_promote(self, now: int) -> None:
        """Promote a due bank only at the postponement limit or when no
        latency-critical demand is queued (the elastic policy, per bank).

        A promoted bank is committed exactly like a committed rank in the
        all-bank path: demand to it is deferred until its REFsb issues.
        """
        mc = self.mc
        heap = self._sb_heap
        trefi = mc.trefi_c
        deferred = self._sb_deferred
        # Newly due banks move off the heap into the deferred pool with a
        # precomputed forced-promotion cycle (debt only changes at issue,
        # so the budget is fixed for the entry's deferred lifetime).
        moved = False
        while heap and heap[0][0] <= now:
            due, rank_id, bank_id = heapq.heappop(heap)
            key = (rank_id, bank_id)
            budget = max(0, self.max_postponed - self._sb_debt[key])
            forced = due + budget * trefi
            deferred[key] = forced
            if forced < self._sb_forced_min:
                self._sb_forced_min = forced
            moved = True
        if moved:
            # Heap -> deferred moves leave the wake formula unchanged (both
            # sides price the entry at due + budget * tREFI), but they do
            # mutate scheduling containers; keep the memo contract uniform.
            mc.mark_dirty()
        if not deferred:
            return
        idle = not mc.read_q
        if not idle and now < self._sb_forced_min:
            return  # every due bank still has budget and demand is queued
        promoted = False
        for key, forced in list(deferred.items()):
            if idle or forced <= now:
                del deferred[key]
                self._sb_draining.add(key)
                mc.blocked_banks.add(key)
                promoted = True
                if mc.tracer is not None:
                    mc.tracer.on_decision("sb-promote", now, key[0], key[1], forced)
        if promoted:
            self._sb_forced_min = min(deferred.values(), default=_FAR_FUTURE)
            mc.mark_dirty()

    def _sb_account(self, key: tuple[int, int], now: int, due: int) -> None:
        missed = max(0, (now - due) // self.mc.trefi_c)
        self._sb_debt[key] = max(0, self._sb_debt[key] + missed - 1)
        if missed and self.mc.tracer is not None:
            self.mc.tracer.on_decision("postpone", now, key[0], key[1], missed)

    def _sb_urgent_wake(self, now: int) -> int:
        """Mirror of ``_sb_urgent``'s gates for the schedule memo.

        Valid only for a mutation-free call (the memo contract): due heap
        entries would have moved to the deferred pool (a marking
        mutation), and idle promotion would have fired, so here the heap
        head is in the future and every deferred bank waits on its
        forced-promotion cycle.
        """
        wake = self._sb_drain_wake(now, self._preventive_deadline(now))
        heap = self._sb_heap
        if heap and heap[0][0] < wake:
            wake = heap[0][0]
        if self._sb_deferred:
            if not self.mc.read_q:
                return now  # defensive: idle promotion fires immediately
            if self._sb_forced_min < wake:
                wake = self._sb_forced_min
        return wake

    def _rank_must_refresh(self, rank_id: int, now: int) -> bool:
        due = self.mc._ta.ref_due[rank_id]
        if now < due:
            return False
        overdue = (now - due) // self.mc.trefi_c
        if self._debt[rank_id] + overdue >= self.max_postponed:
            return True
        # Refresh early when no latency-critical demand is queued: reads
        # stall cores, writes drain lazily and can absorb a REF.
        return not self.mc.read_q

    def urgent(self, now: int) -> bool:
        if self._same_bank:
            return self._sb_urgent(now)
        if self._service_preventive(now):
            return True
        mc = self.mc
        ta = mc._ta
        committed = self._committed
        for rank_id in range(len(committed)):
            due = ta.ref_due[rank_id]
            if now < ta.busy_until[rank_id] or now < due:
                continue
            if not committed[rank_id] and not self._rank_must_refresh(rank_id, now):
                # Postpone: account the debt once per elapsed interval.
                continue
            # Commit and block demand to the rank: newly arriving reads can
            # no longer cancel the drain or push tRP-readiness away.  The
            # commit switches urgent_wake to the drain-gate formula, so the
            # transition invalidates the schedule memo.
            if not committed[rank_id]:
                committed[rank_id] = True
                mc.mark_dirty()
            if rank_id not in mc.blocked_ranks:
                mc.blocked_ranks.add(rank_id)
                mc.mark_dirty()
            open_bank = mc.first_open_bank(rank_id)
            if open_bank is not None:
                g = rank_id * mc.banks_per_rank + open_bank
                if now >= ta.next_pre[g]:
                    mc.issue_pre(rank_id, open_bank, now)
                    return True
                continue
            if now < ta.ref_ready[rank_id]:
                continue  # tRP still elapsing; the rank stays blocked
            committed[rank_id] = False
            mc.blocked_ranks.discard(rank_id)
            mc.issue_ref(rank_id, now)
            missed = max(0, (now - due) // mc.trefi_c)
            self._debt[rank_id] = max(0, self._debt[rank_id] + missed - 1)
            if missed and mc.tracer is not None:
                mc.tracer.on_decision("postpone", now, rank_id, -1, missed)
            ta.ref_due[rank_id] = due + mc.trefi_c
            return True
        return False

    def urgent_wake(self, now: int) -> int:
        if self._same_bank:
            return self._sb_urgent_wake(now)
        wake = self._preventive_deadline(now)
        mc = self.mc
        ta = mc._ta
        trefi = mc.trefi_c
        read_q = bool(mc.read_q)
        for rank_id, due in enumerate(ta.ref_due):
            busy = ta.busy_until[rank_id]
            if self._committed[rank_id]:
                # Mid-drain (rank already blocked by an earlier, mutating
                # call): next drain step per urgent's branches.
                open_bank = mc.first_open_bank(rank_id)
                if open_bank is not None:
                    gate = ta.next_pre[rank_id * mc.banks_per_rank + open_bank]
                else:
                    gate = ta.ref_ready[rank_id]
            else:
                # Engagement cycle: _rank_must_refresh first holds at the
                # debt-overflow deadline (or at ref_due when idle), and
                # engaging commits the rank — a memo-voiding mutation.
                gate = due
                if read_q:
                    gate += max(0, self.max_postponed - self._debt[rank_id]) * trefi
            if busy > gate:
                gate = busy
            if gate < wake:
                wake = gate
        return wake

    def postponed_total(self) -> int:
        if self._same_bank:
            return sum(self._sb_debt.values())
        return sum(self._debt)
