"""DRAM organization: channels, ranks, bank groups, banks, subarrays, rows.

The geometry object is shared by the circuit-level chip model (which cares
about subarrays and rows) and the system simulator (which cares about
channels, ranks, and banks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.errors import GeometryError


@dataclass(frozen=True, slots=True)
class Geometry:
    """Hierarchical DRAM organization.

    The defaults model the paper's simulated system (Table 3): one channel,
    one rank, 4 bank groups × 4 banks, 64K rows per bank, with banks split
    into 128 subarrays of 512 rows (§6 models 128 subarrays per bank and up
    to 1024 rows per subarray).
    """

    channels: int = 1
    ranks_per_channel: int = 1
    bankgroups_per_rank: int = 4
    banks_per_bankgroup: int = 4
    subarrays_per_bank: int = 128
    rows_per_subarray: int = 512
    columns_per_row: int = 128
    bits_per_column: int = 64

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "ranks_per_channel",
            "bankgroups_per_rank",
            "banks_per_bankgroup",
            "subarrays_per_bank",
            "rows_per_subarray",
            "columns_per_row",
            "bits_per_column",
        ):
            if getattr(self, name) < 1:
                raise GeometryError(f"{name} must be >= 1")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def banks_per_rank(self) -> int:
        return self.bankgroups_per_rank * self.banks_per_bankgroup

    @property
    def rows_per_bank(self) -> int:
        return self.subarrays_per_bank * self.rows_per_subarray

    @property
    def row_bits(self) -> int:
        return self.columns_per_row * self.bits_per_column

    # ------------------------------------------------------------------
    # Row <-> subarray conversions
    # ------------------------------------------------------------------
    def subarray_of_row(self, row: int) -> int:
        """Which subarray a bank-local row index belongs to."""
        self.check_row(row)
        return row // self.rows_per_subarray

    def row_within_subarray(self, row: int) -> int:
        """Row offset inside its subarray."""
        self.check_row(row)
        return row % self.rows_per_subarray

    def row_of(self, subarray: int, offset: int) -> int:
        """Bank-local row index for a (subarray, offset) pair."""
        if not 0 <= subarray < self.subarrays_per_bank:
            raise GeometryError(f"subarray {subarray} out of range")
        if not 0 <= offset < self.rows_per_subarray:
            raise GeometryError(f"row offset {offset} out of range")
        return subarray * self.rows_per_subarray + offset

    def check_row(self, row: int) -> None:
        if not 0 <= row < self.rows_per_bank:
            raise GeometryError(
                f"row {row} out of range [0, {self.rows_per_bank})"
            )

    def check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.banks_per_rank:
            raise GeometryError(
                f"bank {bank} out of range [0, {self.banks_per_rank})"
            )


@dataclass(frozen=True, slots=True)
class Address:
    """A fully decoded DRAM address used by the system simulator."""

    channel: int = 0
    rank: int = 0
    bank: int = 0
    row: int = 0
    col: int = 0

    def validate(self, geom: Geometry) -> "Address":
        """Raise :class:`GeometryError` if any field is out of range."""
        if not 0 <= self.channel < geom.channels:
            raise GeometryError(f"channel {self.channel} out of range")
        if not 0 <= self.rank < geom.ranks_per_channel:
            raise GeometryError(f"rank {self.rank} out of range")
        geom.check_bank(self.bank)
        geom.check_row(self.row)
        if not 0 <= self.col < geom.columns_per_row:
            raise GeometryError(f"column {self.col} out of range")
        return self


def geometry_for_capacity(
    capacity_gbit: float,
    banks_per_rank: int = 16,
    rows_per_subarray: int = 512,
    **overrides,
) -> Geometry:
    """Build a :class:`Geometry` for the §8 capacity sweep.

    Rows per bank follow the √capacity projection of
    :func:`repro.dram.timing.projected_rows_per_bank` (see its docstring
    for why future-density chips cannot scale row count linearly under the
    tFAW power budget); the subarray count is derived to keep
    ``rows_per_subarray`` fixed, mirroring how density scaling adds
    subarrays rather than growing them.
    """
    from repro.dram.timing import projected_rows_per_bank

    rows = projected_rows_per_bank(capacity_gbit)
    subarrays = max(1, rows // rows_per_subarray)
    bankgroups = overrides.pop("bankgroups_per_rank", 4)
    banks_per_group = banks_per_rank // bankgroups
    return Geometry(
        bankgroups_per_rank=bankgroups,
        banks_per_bankgroup=banks_per_group,
        subarrays_per_bank=subarrays,
        rows_per_subarray=rows_per_subarray,
        **overrides,
    )
