"""MOP (Minimalist Open-Page) address mapping [68].

The paper's simulated memory controller uses MOP mapping (Table 3): small
blocks of consecutive cache lines stay in the same row for spatial locality,
while successive blocks interleave across channels, then ranks, then bank
groups, then banks — maximizing parallelism for streaming accesses without
sacrificing the open-row policy's hit rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.geometry import Address, Geometry


@dataclass(frozen=True)
class AddressMapper:
    """Decodes flat cache-line addresses into DRAM coordinates.

    Field order from the least-significant side:
    ``[mop-block column | channel | rank | bankgroup | bank | column-high | row]``.

    :meth:`decode_batch` is the form the simulator runs: the trace refill
    decodes each batch of accesses at once, so a request is born with its
    coordinates.  :meth:`decode` is the scalar reference it must equal.
    """

    geometry: Geometry
    mop_lines: int = 4

    def __post_init__(self) -> None:
        if self.mop_lines < 1 or self.geometry.columns_per_row % self.mop_lines:
            raise ValueError("mop_lines must divide columns_per_row")

    @property
    def lines_per_row(self) -> int:
        return self.geometry.columns_per_row

    def decode(self, line: int) -> Address:
        """Map a flat cache-line address to (channel, rank, bank, row, col)."""
        if line < 0:
            raise ValueError("line address must be non-negative")
        geom = self.geometry
        remaining, col_low = divmod(line, self.mop_lines)
        remaining, channel = divmod(remaining, geom.channels)
        remaining, rank = divmod(remaining, geom.ranks_per_channel)
        remaining, bankgroup = divmod(remaining, geom.bankgroups_per_rank)
        remaining, bank_in_group = divmod(remaining, geom.banks_per_bankgroup)
        remaining, col_high = divmod(remaining, geom.columns_per_row // self.mop_lines)
        row = remaining % geom.rows_per_bank
        bank = bankgroup * geom.banks_per_bankgroup + bank_in_group
        col = col_high * self.mop_lines + col_low
        return Address(channel=channel, rank=rank, bank=bank, row=row, col=col)

    def decode_batch(
        self, lines: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`decode` over an int64 array: (channel, rank, bank, row).

        The same divisions in the same order, element-wise; the column is
        left out (the simulator never reads it).
        """
        if lines.size and lines.min() < 0:
            raise ValueError("line address must be non-negative")
        geom = self.geometry
        remaining = lines // self.mop_lines
        remaining, channel = np.divmod(remaining, geom.channels)
        remaining, rank = np.divmod(remaining, geom.ranks_per_channel)
        remaining, bankgroup = np.divmod(remaining, geom.bankgroups_per_rank)
        remaining, bank_in_group = np.divmod(remaining, geom.banks_per_bankgroup)
        remaining //= geom.columns_per_row // self.mop_lines
        row = remaining % geom.rows_per_bank
        bank = bankgroup * geom.banks_per_bankgroup + bank_in_group
        return channel, rank, bank, row

    def encode(self, addr: Address) -> int:
        """Inverse of :meth:`decode` (bijective within one row wrap)."""
        geom = self.geometry
        col_high, col_low = divmod(addr.col, self.mop_lines)
        bankgroup, bank_in_group = divmod(addr.bank, geom.banks_per_bankgroup)
        value = addr.row
        value = value * (geom.columns_per_row // self.mop_lines) + col_high
        value = value * geom.banks_per_bankgroup + bank_in_group
        value = value * geom.bankgroups_per_rank + bankgroup
        value = value * geom.ranks_per_channel + addr.rank
        value = value * geom.channels + addr.channel
        value = value * self.mop_lines + col_low
        return value
