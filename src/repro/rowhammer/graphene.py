"""A Graphene-like counter-based RowHammer tracker [135].

§5.1.2 states HiRA-MC supports *all* memory-controller-based preventive
refresh mechanisms, and that counter-based defenses must be configured with
a hammer-count threshold reduced by ``tRefSlack / tRC`` so an attacker
cannot exploit the queueing delay.  This module provides such a mechanism:
a Misra–Gries heavy-hitter summary over activated rows (the core of
Graphene) that triggers a preventive refresh of a row's neighbours when its
estimated activation count crosses the (slack-adjusted) threshold.

Unlike PARA it is deterministic and stateful; unlike PARA its hardware cost
grows as the RowHammer threshold shrinks (the paper's argument for
evaluating PARA, §9) — ``configured_for``'s ``entries`` sizing
quantifies that.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class GrapheneTracker:
    """Misra–Gries activation tracking for one DRAM bank.

    Attributes:
        threshold: Estimated activation count at which a row's neighbours
            are preventively refreshed (then the row's counter resets).
        entries: Counter-table size.  Misra–Gries guarantees any row with
            more than ``total/ (entries+1)`` activations has an entry, so
            sizing follows ``activations_per_window / threshold`` (the
            Graphene rule).
    """

    threshold: int
    entries: int
    counters: dict[int, int] = field(default_factory=dict)
    spillover: int = 0

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.entries < 1:
            raise ValueError("entries must be >= 1")

    @classmethod
    def configured_for(
        cls,
        nrh: float,
        tref_slack_acts: int = 0,
        trefw_ns: float = 64e6,
        trc_ns: float = 46.25,
        safety_divisor: float = 4.0,
    ) -> "GrapheneTracker":
        """Size the tracker per §5.1.2 and the Graphene sizing rule.

        The trigger threshold is ``NRH / safety_divisor`` (Graphene
        refreshes well before the threshold), *reduced* by the attacker's
        extra activations during tRefSlack (§5.1.2).
        """
        threshold = int(nrh / safety_divisor) - tref_slack_acts
        if threshold < 1:
            raise ValueError(
                "NRH too small for this tRefSlack: the tracker would have "
                "to refresh on every activation"
            )
        max_acts = trefw_ns / trc_ns
        entries = max(1, int(max_acts / threshold))
        return cls(threshold=threshold, entries=entries)

    # ------------------------------------------------------------------
    def observe(self, row: int) -> int | None:
        """Record one activation; returns the row if it crossed the
        threshold (the caller then preventively refreshes its neighbours
        and the counter resets)."""
        count = self.counters.get(row)
        if count is not None:
            count += 1
            if count >= self.threshold + self.spillover:
                del self.counters[row]
                return row
            self.counters[row] = count
            return None
        if len(self.counters) < self.entries:
            self.counters[row] = self.spillover + 1
            return None
        # Misra–Gries decrement step, implemented as a spillover floor so
        # it stays O(1): a new row starts at the current floor.
        self.spillover += 1
        drained = [r for r, c in self.counters.items() if c <= self.spillover]
        for r in drained:
            del self.counters[r]
        self.counters[row] = self.spillover + 1
        return None
