"""The SoftMC host: drives a chip with timed command programs.

The host mirrors the experimental setup of §4.1: it can disable the chip's
self-regulation (we simply never issue REF during characterization), keeps
tests short enough that retention is irrelevant (the chip model has no
retention-error mechanism), and offers the initialize / read-back / compare
primitives Algorithms 1 and 2 are written in terms of.
"""

from __future__ import annotations

import numpy as np

from repro.chip.chip_model import DramChip
from repro.dram.errors import TimingViolation
from repro.softmc.patterns import DataPattern
from repro.softmc.program import Program


class SoftMCHost:
    """Issues command programs to a :class:`~repro.chip.chip_model.DramChip`.

    Attributes:
        chip: The device under test.
        slot_ps: Minimum spacing between consecutive commands.  The paper's
            infrastructure issues a command every 1.5 ns (§4.1); nominal
            JEDEC sequences easily satisfy this.
    """

    def __init__(self, chip: DramChip, slot_ps: int = 1_500):
        self.chip = chip
        self.slot_ps = slot_ps
        # A new host session resumes from the chip's clock (the device's
        # command history is monotonic even across host reconnects).
        self._time_ps = max(0, chip._last_cmd_ps + slot_ps)

    @property
    def time_ps(self) -> int:
        """Current host time (advances monotonically across programs)."""
        return self._time_ps

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------
    def run(self, program: Program) -> None:
        """Issue every command of a program, validating slot spacing.

        However the program ends, the host clock moves past the program and
        at least one slot past the last command the chip accepted, so a
        program that raised part-way does not strand the next one behind
        the chip's clock.
        """
        chip = self.chip
        slot_ps = self.slot_ps
        issue = chip.issue
        prev_ps: int | None = None
        try:
            for cmd in program.commands:
                time_ps = cmd.time_ps
                if prev_ps is not None and time_ps - prev_ps < slot_ps:
                    raise TimingViolation(
                        f"commands {prev_ps}→{time_ps} ps violate the "
                        f"{slot_ps} ps command slot"
                    )
                prev_ps = time_ps
                issue(cmd)
        finally:
            self._time_ps = max(self._time_ps, program.cursor_ps,
                                chip._last_cmd_ps + slot_ps)

    def program(self) -> Program:
        """A new program starting at the current host time."""
        return Program(start_ps=self._time_ps)

    def advance(self, wait_ps: int) -> None:
        """Let time pass without issuing commands."""
        if wait_ps < 0:
            raise ValueError("wait must be non-negative")
        self._time_ps += wait_ps

    # ------------------------------------------------------------------
    # Row-level convenience primitives used by the experiment drivers
    # ------------------------------------------------------------------
    def initialize(self, bank: int, row: int, pattern: DataPattern) -> None:
        """Write a data pattern to a whole row (ACT + bulk WR + PRE)."""
        tp = self.chip.timing
        prog = (
            self.program()
            .act(bank, row, wait_ps=tp.trcd)
            .wr(bank, 0, wait_ps=max(tp.tras - tp.trcd, self.slot_ps), fill=pattern.byte)
            .pre(bank, wait_ps=tp.trp)
        )
        self.run(prog)

    def read_row(self, bank: int, row: int) -> np.ndarray:
        """Read a whole row back with nominal timing."""
        tp = self.chip.timing
        prog = self.program().act(bank, row, wait_ps=tp.trcd).rd(bank, 0, wait_ps=self.slot_ps)
        self.run(prog)
        __, data = self.chip.read_open_row(bank)
        close = self.program()
        close.wait(max(tp.tras - tp.trcd - self.slot_ps, 0))
        close.pre(bank, wait_ps=tp.trp)
        self.run(close)
        return data

    def compare_data(self, pattern: DataPattern, bank: int, row: int) -> int:
        """Bit flips in ``row`` relative to ``pattern`` (0 means pass)."""
        return pattern.count_bitflips(self.read_row(bank, row))

    # ------------------------------------------------------------------
    # HiRA and hammering primitives
    # ------------------------------------------------------------------
    def hira(
        self,
        bank: int,
        row_a: int,
        row_b: int,
        t1_ps: int | None = None,
        t2_ps: int | None = None,
        close: bool = True,
    ) -> None:
        """Perform one HiRA operation (and optionally close both rows)."""
        tp = self.chip.timing
        t1 = tp.hira_t1 if t1_ps is None else t1_ps
        t2 = tp.hira_t2 if t2_ps is None else t2_ps
        prog = self.program().hira(bank, row_a, row_b, t1_ps=t1, t2_ps=t2, settle_ps=tp.tras)
        if close:
            prog.pre(bank, wait_ps=tp.trp)
        self.run(prog)

    def activate_refresh(self, bank: int, row: int) -> None:
        """Refresh one row with a nominal ACT/PRE pair."""
        tp = self.chip.timing
        self.run(self.program().act(bank, row, wait_ps=tp.tras).pre(bank, wait_ps=tp.trp))

    def hammer(self, bank: int, rows: list[int], count: int) -> None:
        """Activate each row ``count`` times (bulk FPGA-style loop)."""
        self.chip.bulk_hammer(bank, rows, count)
        self._time_ps = max(self._time_ps, self.chip._last_cmd_ps)
