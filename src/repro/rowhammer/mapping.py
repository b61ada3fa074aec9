"""Reverse engineering the DRAM-internal row mapping.

DRAM manufacturers internally remap memory-controller-visible row addresses
to physical rows (§4.3 footnote 8), so the rows adjacent to a victim must be
discovered experimentally.  Like prior work, we use single-sided hammering:
hammering a single row heavily flips bits only in its *physically* adjacent
rows, which identifies them regardless of the logical numbering.
"""

from __future__ import annotations

from repro.softmc.host import SoftMCHost
from repro.softmc.patterns import DataPattern


def find_aggressors(
    host: SoftMCHost,
    bank: int,
    victim: int,
    search_radius: int = 8,
    hammer_count: int = 400_000,
    pattern: DataPattern = DataPattern.ALL_ONES,
) -> list[int]:
    """Logical rows whose hammering flips bits in ``victim``.

    Searches the logical neighbourhood of ``victim`` (internal remapping is
    local to a subarray), hammering one candidate at a time — the
    single-sided procedure of prior work [79, 84, 129, 180].
    """
    geometry = host.chip.geometry
    rows_per_sa = geometry.rows_per_subarray
    subarray = geometry.subarray_of_row(victim)
    base = subarray * rows_per_sa
    offset = victim - base
    lo = max(0, offset - search_radius)
    hi = min(rows_per_sa - 1, offset + search_radius)
    aggressors = []
    for cand_offset in range(lo, hi + 1):
        candidate = base + cand_offset
        if candidate == victim:
            continue
        host.initialize(bank, victim, pattern)
        host.initialize(bank, candidate, pattern.inverse)
        host.hammer(bank, [candidate], hammer_count)
        if host.compare_data(pattern, bank, victim) > 0:
            aggressors.append(candidate)
    return aggressors
