"""The DDR4 command set relevant to HiRA.

HiRA is built exclusively from commands that already exist in off-the-shelf
DDR4 chips: row activation (``ACT``), precharge (``PRE``), column accesses
(``RD``/``WR``), and the rank-level refresh command (``REF``) used by the
baseline memory controller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class CommandKind(enum.Enum):
    """A DDR4 command mnemonic."""

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"
    NOP = "NOP"

    def targets_row(self) -> bool:
        """Whether the command carries a row address."""
        return self is CommandKind.ACT

    def targets_bank(self) -> bool:
        """Whether the command carries a bank address."""
        return self in (CommandKind.ACT, CommandKind.PRE, CommandKind.RD, CommandKind.WR)

    def is_column_access(self) -> bool:
        """Whether the command reads or writes the open row buffer."""
        return self in (CommandKind.RD, CommandKind.WR)


# Each member's address requirements, derived once from the methods above so
# that validating a command costs attribute reads, not enum comparisons.
for _kind in CommandKind:
    _kind._needs_bank = _kind.targets_bank()
    _kind._needs_row = _kind.targets_row()
    _kind._needs_col = _kind.is_column_access()
del _kind


@dataclass(slots=True)
class Command:
    """A single DDR4 command with an issue timestamp.

    Commands are read-only by convention, not frozen: a frozen dataclass
    stores each field through ``object.__setattr__``, which nearly triples
    the cost of building one, and §4's characterization builds tens of
    thousands per pass.  :class:`~repro.softmc.program.Program` is their
    only producer outside tests, and nothing writes a field after
    construction (``tests/test_softmc.py`` checks that running a program
    leaves every command as built).  Commands are no longer hashable.

    Attributes:
        kind: The command mnemonic.
        time_ps: Issue time in integer picoseconds.
        rank: Target rank (``REF`` is rank-level; others address a bank).
        bank: Target bank within the rank, or ``None`` for rank-level
            commands such as ``REF``.
        row: Target row for ``ACT``; ``None`` otherwise.  ``PRE`` carries no
            row address — this is load-bearing for HiRA: a single ``PRE``
            closes *all* wordlines in the bank (paper footnote 1).
        col: Target column for ``RD``/``WR``.
        meta: Free-form annotations (e.g. ``{"hira": "first"}``) used by the
            experiment drivers and the HiRA-MC scheduler.
    """

    kind: CommandKind
    time_ps: int
    rank: int = 0
    bank: int | None = None
    row: int | None = None
    col: int | None = None
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.time_ps < 0:
            raise ValueError(f"command time must be non-negative, got {self.time_ps}")
        kind = self.kind
        if kind._needs_bank and self.bank is None:
            raise ValueError(f"{kind.value} requires a bank address")
        if kind._needs_row and self.row is None:
            raise ValueError(f"{kind.value} requires a row address")
        if kind._needs_col and self.col is None:
            raise ValueError(f"{kind.value} requires a column address")

    def describe(self) -> str:
        """Human-readable one-line rendering, e.g. ``@1500ps ACT b0 r42``."""
        parts = [f"@{self.time_ps}ps", self.kind.value, f"rk{self.rank}"]
        if self.bank is not None:
            parts.append(f"b{self.bank}")
        if self.row is not None:
            parts.append(f"r{self.row}")
        if self.col is not None:
            parts.append(f"c{self.col}")
        return " ".join(parts)
