"""RowHammer disturbance accumulation and bit-flip materialization.

The model tracks, per physical row, the disturbance accumulated from
activations of its physical neighbours.  Bit flips materialize when the row
is next *sensed* (activated) with a peak disturbance at or above its
effective RowHammer threshold — sensing amplifies whatever charge is left in
the cells, making the flips permanent until the row is rewritten.

A completed charge restoration (a refresh, or any activation held open past
the row's restore time) does not perfectly erase the accumulated
disturbance.  We model the post-restore disturbance as

    disturb' = disturb × residual − (boost − 1) × NRH

where ``residual`` is the fraction of disturbance that survives the restore
and ``boost`` captures the charge margin a fresh restore leaves (restores
can over- or under-shoot nominal charge).  With the §4.3 experiment's
structure (HC/2 hammers, one HiRA refresh, HC/2 hammers) this yields a
measured threshold of ``2·NRH·boost / (1 + residual)`` capped near 2× by
first-half flips — reproducing the paper's ~1.9× mean and 1.09–2.58 spread
(Table 4).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.chip.variation import RowTiming, VariationModel


@dataclass
class _RowDisturb:
    disturb: float = 0.0
    peak: float = 0.0
    run: int = 0  # increments on rewrite; keys per-run threshold noise


@dataclass
class DisturbState:
    """Per-chip RowHammer disturbance bookkeeping (physical row space)."""

    variation: VariationModel
    rows: dict[tuple[int, int], _RowDisturb] = field(default_factory=dict)

    def _entry(self, bank: int, phys_row: int) -> _RowDisturb:
        key = (bank, phys_row)
        entry = self.rows.get(key)
        if entry is None:
            entry = _RowDisturb()
            self.rows[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def hammer(self, bank: int, phys_neighbors: Iterable[int], count: int = 1) -> None:
        """Neighbouring row(s) of an activated row accumulate disturbance."""
        for phys in phys_neighbors:
            entry = self._entry(bank, phys)
            entry.disturb += count
            if entry.disturb > entry.peak:
                entry.peak = entry.disturb

    def on_write(self, bank: int, phys_row: int) -> None:
        """A rewrite replaces the cell charge entirely."""
        entry = self._entry(bank, phys_row)
        entry.disturb = 0.0
        entry.peak = 0.0
        entry.run += 1

    def flips_on_sense(self, bank: int, phys_row: int, timing: RowTiming) -> int:
        """Number of bit flips materializing when this row is sensed.

        Returns 0 when the peak disturbance stayed below the row's
        per-run effective threshold.
        """
        entry = self.rows.get((bank, phys_row))
        # The threshold (NRH × a lognormal draw) is always positive, so a
        # row with no positive peak cannot flip: skip the keyed draw.
        if entry is None or entry.peak <= 0:
            return 0
        threshold = timing.nrh * self.variation.run_noise(bank, phys_row, entry.run)
        if entry.peak < threshold:
            return 0
        # More excess hammering flips more cells; keep it deterministic.
        excess = entry.peak / threshold - 1.0
        return 1 + min(48, int(excess * 24))

    def on_restore(self, bank: int, phys_row: int, timing: RowTiming, fraction: float = 1.0) -> None:
        """Apply a (possibly partial) charge restoration to the row.

        ``fraction`` < 1 models a row closed before its restore time: only
        that fraction of the disturbance-erasing effect is applied, and no
        charge-margin boost is credited.
        """
        entry = self.rows.get((bank, phys_row))
        if entry is None:
            return
        if fraction >= 1.0:
            # The charge-margin (boost) term scales with the disturbance
            # actually being erased: a restore of an undisturbed row leaves
            # the reference (freshly-written) state unchanged.
            margin = (timing.boost - 1.0) * timing.nrh
            margin *= min(1.0, max(entry.disturb, 0.0) / timing.nrh)
            new = entry.disturb * timing.residual - margin
            new = max(new, -0.6 * timing.nrh)
        else:
            fraction = max(0.0, fraction)
            erase = fraction * (1.0 - timing.residual)
            new = entry.disturb * (1.0 - erase)
        entry.disturb = new
        entry.peak = max(new, 0.0)

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------
    def disturbance(self, bank: int, phys_row: int) -> float:
        entry = self.rows.get((bank, phys_row))
        return entry.disturb if entry else 0.0
