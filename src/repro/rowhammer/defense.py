"""Pluggable preventive-refresh defenses for PreventiveRC (§5.1.2).

HiRA-MC "provides parallelism support for all memory controller-based
preventive refresh mechanisms".  The engines observe demand activations
through a single duck-typed interface — ``preventive_refresh_target(row,
rows_in_bank, bank_key)`` — implemented by the probabilistic
:class:`~repro.rowhammer.para.Para` and by the counter-based
:class:`GrapheneDefense` below.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.rowhammer.graphene import GrapheneTracker


@dataclass
class GrapheneDefense:
    """Counter-based preventive refresh using per-bank Misra–Gries trackers.

    When a row's estimated activation count crosses the (slack-adjusted)
    threshold, *both* physical neighbours are preventively refreshed; the
    interface yields one victim per observation, so the second neighbour is
    returned on the next call (a real controller would enqueue both in the
    same cycle — the one-activation delay is immaterial at these rates).
    """

    nrh: float
    tref_slack_acts: int = 0
    _trackers: dict = field(default_factory=dict)
    _pending: deque = field(default_factory=deque)

    def _tracker_for(self, bank_key) -> GrapheneTracker:
        tracker = self._trackers.get(bank_key)
        if tracker is None:
            tracker = GrapheneTracker.configured_for(
                nrh=self.nrh, tref_slack_acts=self.tref_slack_acts
            )
            self._trackers[bank_key] = tracker
        return tracker

    def preventive_refresh_target(
        self, activated_row: int, rows_in_bank: int, bank_key=None
    ) -> int | None:
        if self._pending:
            return self._pending.popleft()
        tracker = self._tracker_for(bank_key)
        hot = tracker.observe(activated_row)
        if hot is None:
            return None
        low, high = hot - 1, hot + 1
        victims = [v for v in (low, high) if 0 <= v < rows_in_bank]
        if not victims:
            return None
        first = victims[0]
        self._pending.extend(victims[1:])
        return first
