"""The RefPtr Table: per-subarray next-row-to-refresh pointers (§5, comp. 1).

One entry per (bank, subarray) holds a pointer to the next row the subarray
must refresh.  §5.1.3's balanced advance across subarrays (step b) comes
from the Subarray Pairs Table's rotating partner choice
(:meth:`repro.core.spt.SubarrayPairsTable.partner_subarray`), so the table
keeps no per-window refresh counts.
"""

from __future__ import annotations

from repro.dram.geometry import Geometry


class RefPtrTable:
    """Tracks refresh progress per subarray of one rank."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self._next_offset: dict[tuple[int, int], int] = {}

    def advance(self, bank: int, subarray: int) -> int:
        """Consume and return the subarray's next refresh row."""
        key = (bank, subarray)
        offset = self._next_offset.get(key, 0)
        self._next_offset[key] = (offset + 1) % self.geometry.rows_per_subarray
        return self.geometry.row_of(subarray, offset)
