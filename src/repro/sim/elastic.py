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

    #: Engage and promotion read ``mc.read_q``: a served read can pull
    #: a REF earlier without a ``mark_dirty()`` (rule 4 of ``schedule``).
    wake_reusable = False

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
    def _sb_promote(self, now: int) -> int:
        """Promote a due bank only at the postponement limit or when no
        latency-critical demand is queued (the elastic policy, per bank).

        A promoted bank is committed exactly like a committed rank in the
        all-bank path: demand to it is deferred until its REFsb issues.
        Returns the cycle the next promotion fires: the heap head (a move
        into the deferred pool) or the earliest forced promotion.  With
        no read queued every deferred bank promotes here, and a read
        leaves the queue only by an issue, so the forced minimum is the
        deferred pool's only future trigger.
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
            mc.mark_dirty()  # the moves mutate scheduling containers
        idle = not mc.read_q
        if deferred and (idle or self._sb_forced_min <= now):
            for key, forced in list(deferred.items()):
                if idle or forced <= now:
                    del deferred[key]
                    self._sb_draining.add(key)
                    mc.blocked_banks.add(key)
                    if mc.tracer is not None:
                        mc.tracer.on_decision("sb-promote", now, key[0], key[1], forced)
            self._sb_forced_min = min(deferred.values(), default=_FAR_FUTURE)
            mc.mark_dirty()
        wake = self._sb_forced_min
        if heap and heap[0][0] < wake:
            wake = heap[0][0]
        return wake

    def _sb_account(self, key: tuple[int, int], now: int, due: int) -> None:
        missed = max(0, (now - due) // self.mc.trefi_c)
        self._sb_debt[key] = max(0, self._sb_debt[key] + missed - 1)
        if missed and self.mc.tracer is not None:
            self.mc.tracer.on_decision("postpone", now, key[0], key[1], missed)

    # -- All-bank overrides --------------------------------------------------
    def _engage_at(self, rank_id: int) -> int:
        """Cycle the rank must start its REF drain.

        A committed rank stays engaged.  Otherwise REF is postponed while
        reads are queued (reads stall cores; writes drain lazily and can
        absorb a REF) until the debt reaches the budget:
        ``ref_due + max(0, max_postponed - debt) * tREFI``.  With no read
        queued it engages at ``ref_due``.
        """
        mc = self.mc
        due = mc._ta.ref_due[rank_id]
        if self._committed[rank_id] or not mc.read_q:
            return due
        return due + max(0, self.max_postponed - self._debt[rank_id]) * mc.trefi_c

    def _engage(self, rank_id: int) -> None:
        # Commit: newly arriving reads can no longer cancel the drain or
        # push tRP-readiness away.
        if not self._committed[rank_id]:
            self._committed[rank_id] = True
            self.mc.mark_dirty()
        super()._engage(rank_id)

    def _on_ref(self, rank_id: int, now: int, due: int) -> None:
        # Account the debt once per elapsed interval.
        self._committed[rank_id] = False
        missed = max(0, (now - due) // self.mc.trefi_c)
        self._debt[rank_id] = max(0, self._debt[rank_id] + missed - 1)
        if missed and self.mc.tracer is not None:
            self.mc.tracer.on_decision("postpone", now, rank_id, -1, missed)
