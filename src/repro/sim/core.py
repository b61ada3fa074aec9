"""Trace-driven core model with a finite instruction window.

Each core retires non-memory instructions at full width, issues LLC-miss
requests from its trace, and can run ahead of an outstanding read by at
most ``instr_window`` instructions (a standard Ramulator-class core).
Writes leave through a write buffer and do not block the window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.sim.trace import Access, TraceGenerator


@dataclass(slots=True)
class RobEntry:
    """One outstanding read in the core's window."""

    instr_index: int
    complete_cycle: int | None = None


class CoreModel:
    """One simulated core.

    The system loop polls :meth:`ready_cycle`, peeks the pending (already
    decoded) access via :meth:`peek_pending`, and consumes it with
    :meth:`take_request` once the target controller accepted it.  The
    controller completes reads through :meth:`on_read_complete` with the
    :class:`RobEntry` handed out at issue.

    ``ready_cycle`` is a pure function of core state (clamped to ``now``):
    it only changes when :meth:`take_request` or :meth:`on_read_complete`
    mutate the core, which is what lets the system loop cache each core's
    wake time between those events.
    """

    __slots__ = (
        "core_id",
        "trace",
        "instr_budget",
        "warmup_instr",
        "instr_per_cycle",
        "instr_window",
        "mshr",
        "_measure_start_cycle",
        "_issue_clock",
        "_instr_issued",
        "_outstanding",
        "_pending",
        "reads_issued",
        "writes_issued",
        "finish_cycle",
    )

    def __init__(
        self,
        core_id: int,
        trace: TraceGenerator,
        instr_budget: int,
        instr_per_mc_cycle: float,
        instr_window: int = 128,
        mshr: int = 16,
        warmup_instr: int = 0,
    ):
        if instr_budget < 1:
            raise ValueError("instruction budget must be positive")
        if warmup_instr < 0:
            raise ValueError("warmup must be non-negative")
        self.core_id = core_id
        self.trace = trace
        #: Measured instructions; the core additionally executes
        #: ``warmup_instr`` instructions first (paper: 100M warmup before
        #: 200M measured, §7), which do not count toward IPC.
        self.instr_budget = instr_budget
        self.warmup_instr = warmup_instr
        self.instr_per_cycle = instr_per_mc_cycle
        self.instr_window = instr_window
        self.mshr = mshr
        self._measure_start_cycle: int | None = 0 if warmup_instr == 0 else None

        self._issue_clock = 0.0  # fractional MC cycles of frontend progress
        self._instr_issued = 0
        self._outstanding: deque[RobEntry] = deque()
        self._pending: Access | None = None
        self.reads_issued = 0
        self.writes_issued = 0
        self.finish_cycle: int | None = None

    # ------------------------------------------------------------------
    @property
    def _total_budget(self) -> int:
        return self.instr_budget + self.warmup_instr

    def _load_pending(self) -> None:
        if self._pending is None and self._instr_issued < self._total_budget:
            self._pending = self.trace.next_access()

    def _drain_completed(self) -> None:
        while self._outstanding and self._outstanding[0].complete_cycle is not None:
            self._outstanding.popleft()

    def ready_cycle(self, now: int) -> int | None:
        """Earliest cycle the core's next access can issue.

        ``None`` means the core either finished its budget or is blocked on
        an in-flight read whose completion time is not yet known; in both
        cases the system loop revisits it after the next completion event.
        """
        self._load_pending()
        if self._pending is None:
            self._maybe_finish(now)
            return None
        self._drain_completed()
        pending = self._pending
        gap = pending[0]
        frontend = self._issue_clock + gap / self.instr_per_cycle
        earliest = math.ceil(frontend)
        if self._outstanding:
            oldest = self._outstanding[0]
            window_block = (
                self._instr_issued + gap - oldest.instr_index >= self.instr_window
            )
            mshr_block = not pending[2] and len(self._outstanding) >= self.mshr
            if window_block or mshr_block:
                if oldest.complete_cycle is None:
                    return None
                earliest = max(earliest, oldest.complete_cycle)
        return max(earliest, now)

    def peek_pending(self) -> Access:
        """The pending access, without consuming it."""
        if self._pending is None:
            raise RuntimeError("no pending access")
        return self._pending

    def take_request(self, now: int) -> RobEntry | None:
        """Consume the pending access at cycle ``now``.

        Returns the ROB entry to complete later for reads, None for writes.
        """
        pending = self._pending
        if pending is None:
            raise RuntimeError("no pending access to take")
        gap = pending[0]
        is_write = pending[2]
        self._pending = None
        self._instr_issued += gap + 1
        self._issue_clock = max(self._issue_clock + gap / self.instr_per_cycle, float(now))
        if self._measure_start_cycle is None and self._instr_issued >= self.warmup_instr:
            self._measure_start_cycle = now
        entry = None
        if is_write:
            self.writes_issued += 1
        else:
            self.reads_issued += 1
            entry = RobEntry(instr_index=self._instr_issued)
            self._outstanding.append(entry)
        self._maybe_finish(now)
        return entry

    def on_read_complete(self, entry: RobEntry, now: int) -> None:
        """Mark a read returned; the window drains up to the next gap."""
        entry.complete_cycle = now
        self._drain_completed()
        self._maybe_finish(now)

    def _maybe_finish(self, now: int) -> None:
        if (
            self.finish_cycle is None
            and self._instr_issued >= self._total_budget
            and all(e.complete_cycle is not None for e in self._outstanding)
        ):
            last_complete = max(
                (e.complete_cycle for e in self._outstanding if e.complete_cycle),
                default=0,
            )
            self.finish_cycle = max(now, math.ceil(self._issue_clock), last_complete)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.finish_cycle is not None

    @property
    def instructions_retired(self) -> int:
        """Measured (post-warmup) instructions retired."""
        return max(0, min(self._instr_issued, self._total_budget) - self.warmup_instr)

    def ipc(self, total_cycles: int | None = None) -> float:
        """Instructions per MC cycle over the measured window."""
        end = self.finish_cycle if total_cycles is None else total_cycles
        if end is None:
            return 0.0
        start = self._measure_start_cycle or 0
        cycles = end - start
        if cycles <= 0:
            return 0.0
        return self.instructions_retired / cycles
