"""Timed DRAM command programs.

A :class:`Program` is a builder for the command sequences the experiments
issue — the software analogue of a SoftMC instruction buffer.  Waits are
expressed in picoseconds and accumulate into absolute issue times; the real
infrastructure's 1.5 ns command-slot granularity (§4.1 footnote 5) is
enforced by the host, not the builder, so tests can also express nominal
JEDEC sequences exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.commands import Command, CommandKind


@dataclass
class Program:
    """A growing sequence of absolutely-timed commands."""

    start_ps: int = 0
    commands: list[Command] = field(default_factory=list)
    _cursor_ps: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._cursor_ps = self.start_ps

    @property
    def cursor_ps(self) -> int:
        """Issue time of the next command."""
        return self._cursor_ps

    def _push(
        self, kind: CommandKind, wait_ps: int, bank: int, row: int | None = None,
        col: int | None = None, meta: dict | None = None,
    ) -> "Program":
        if wait_ps < 0:
            raise ValueError("wait must be non-negative")
        self.commands.append(Command(kind, self._cursor_ps, 0, bank, row, col, meta or {}))
        self._cursor_ps += wait_ps
        return self

    # ------------------------------------------------------------------
    # Instruction set
    # ------------------------------------------------------------------
    def act(self, bank: int, row: int, wait_ps: int) -> "Program":
        """Activate ``row`` then wait ``wait_ps`` before the next command."""
        return self._push(CommandKind.ACT, wait_ps, bank, row)

    def pre(self, bank: int, wait_ps: int) -> "Program":
        """Precharge the bank then wait ``wait_ps``."""
        return self._push(CommandKind.PRE, wait_ps, bank)

    def rd(self, bank: int, col: int, wait_ps: int) -> "Program":
        """Read a column of the open row."""
        return self._push(CommandKind.RD, wait_ps, bank, col=col)

    def wr(self, bank: int, col: int, wait_ps: int, fill: int | None = None) -> "Program":
        """Write a column; ``fill`` writes the whole open row (bulk mode)."""
        meta = {"fill": fill} if fill is not None else None
        return self._push(CommandKind.WR, wait_ps, bank, col=col, meta=meta)

    def wait(self, wait_ps: int) -> "Program":
        """Idle for ``wait_ps`` (Algorithm 2's no-HiRA arm)."""
        if wait_ps < 0:
            raise ValueError("wait must be non-negative")
        self._cursor_ps += wait_ps
        return self

    def hira(
        self,
        bank: int,
        row_a: int,
        row_b: int,
        t1_ps: int,
        t2_ps: int,
        settle_ps: int,
    ) -> "Program":
        """The HiRA sequence: ACT RowA, wait t1, PRE, wait t2, ACT RowB.

        ``settle_ps`` is the wait after the second ACT (tRAS in Algorithm 1
        so that RowB's charge restoration completes).
        """
        return (
            self.act(bank, row_a, wait_ps=t1_ps)
            .pre(bank, wait_ps=t2_ps)
            .act(bank, row_b, wait_ps=settle_ps)
        )

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)
