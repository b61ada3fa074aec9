"""The PR-FIFO: queued preventive refresh requests (§5, component 2).

PreventiveRC enqueues each RowHammer-preventive refresh here (one FIFO per
bank, 4 entries each per §6's worst-case sizing) with its deadline; the
engine folds the head's deadline into its per-bank deadline, which plays
the paper's Refresh Table role (:class:`repro.core.engine.HiraRefreshEngine`).
The Concurrent Refresh Finder consults the FIFO head when looking for
refresh-access parallelization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class PreventiveRequest:
    row: int
    deadline: int


class PrFifo:
    """Per-bank FIFOs of pending preventive refreshes for one rank."""

    def __init__(self, banks: int, depth: int = 4):
        if depth < 1:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._fifos: list[deque[PreventiveRequest]] = [deque() for __ in range(banks)]

    def push(self, bank: int, request: PreventiveRequest) -> bool:
        """Enqueue; False when the FIFO is full (caller must drain first)."""
        fifo = self._fifos[bank]
        if len(fifo) >= self.depth:
            return False
        fifo.append(request)
        return True

    def head(self, bank: int) -> PreventiveRequest | None:
        fifo = self._fifos[bank]
        return fifo[0] if fifo else None

    def pop(self, bank: int) -> PreventiveRequest:
        return self._fifos[bank].popleft()

    def total_pending(self) -> int:
        return sum(len(f) for f in self._fifos)
