"""The Subarray Pairs Table (§5.1.4).

The SPT records, for each subarray, which subarrays it shares no bitline or
sense amplifier with — obtained either by one-time reverse engineering
(Algorithm 1, as §4.2 does) or from manufacturer mode-status registers.  The
controller queries it to validate refresh-access and refresh-refresh pairs.

The table is backed by the same structural isolation model the chip uses
(:class:`repro.chip.isolation.IsolationMap`), calibrated to the configured
coverage fraction — the simulator's equivalent of loading the reverse-
engineered map into the controller's SRAM.
"""

from __future__ import annotations

from repro.chip.isolation import IsolationMap
from repro.dram.geometry import Geometry


class SubarrayPairsTable:
    """Pair-legality lookups plus rotating partner selection."""

    def __init__(
        self,
        geometry: Geometry,
        coverage: float = 0.32,
        design_seed: int = 0x5B7,
    ):
        self.geometry = geometry
        self.coverage = coverage
        self._map = IsolationMap(
            subarrays=geometry.subarrays_per_bank,
            design_seed=design_seed,
            target_coverage=coverage,
        )
        self._scan_ptr: dict[int, int] = {}

    def isolated(self, sa_a: int, sa_b: int) -> bool:
        """Whether two subarrays can host a HiRA pair."""
        return self._map.isolated(sa_a, sa_b)

    def subarray_of_row(self, row: int) -> int:
        return self.geometry.subarray_of_row(row)

    def partner_subarray(self, bank: int, sa_demand: int) -> int | None:
        """A subarray isolated from ``sa_demand``, rotating for balance.

        The rotation pointer approximates §5.1.3's least-refreshed-first
        selection: successive queries walk the whole bank, spreading
        refresh-access parallelization evenly over subarrays.
        """
        n = self.geometry.subarrays_per_bank
        start = self._scan_ptr.get(bank, 0)
        for step in range(n):
            candidate = (start + step) % n
            if self._map.isolated(sa_demand, candidate):
                self._scan_ptr[bank] = (candidate + 1) % n
                return candidate
        return None

    @property
    def average_coverage(self) -> float:
        return self._map.average_coverage()
