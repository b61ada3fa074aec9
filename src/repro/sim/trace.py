"""Synthetic SPEC-like memory trace generation.

The paper drives Ramulator with SPEC CPU2006 traces; we have no SPEC
binaries offline, so traces are synthesized from per-benchmark profiles
(misses-per-kilo-instruction, row-buffer locality, read fraction, working
set).  Traces are *LLC-miss streams* — the standard Ramulator methodology —
of (instruction gap, flat line address, is_write) accesses.  Each refill
maps its whole batch of lines onto DRAM coordinates at once with the
system's :class:`~repro.sim.addressing.AddressMapper`, so every access
arrives decoded, and the same trace exercises more parallelism on wider
channel/rank configurations exactly as real addresses would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.addressing import AddressMapper


@dataclass(frozen=True)
class TraceProfile:
    """Statistical profile of one benchmark's LLC-miss stream.

    Attributes:
        name: Benchmark label (e.g. ``"mcf-like"``).
        mpki: LLC misses per kilo-instruction (memory intensity).
        row_locality: Probability the next miss stays in the current row
            region (drives row-buffer hit rate under MOP/open-row).
        read_fraction: Fraction of misses that are reads.
        working_set_rows: Distinct row-sized regions the stream touches.
        stream_stride: Lines advanced within a region on a locality hit.
    """

    name: str
    mpki: float
    row_locality: float
    read_fraction: float = 0.67
    working_set_rows: int = 4096
    stream_stride: int = 1

    def __post_init__(self) -> None:
        if self.mpki <= 0:
            raise ValueError("mpki must be positive")
        if not 0.0 <= self.row_locality < 1.0:
            raise ValueError("row_locality must be in [0, 1)")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.working_set_rows < 1:
            raise ValueError("working_set_rows must be >= 1")

    @property
    def mean_gap(self) -> float:
        """Average non-memory instructions between misses."""
        return 1000.0 / self.mpki


#: One access: (instruction gap, line, is_write, channel, rank, bank, row),
#: the last four decoded from ``line`` by the generator's mapper.
Access = tuple[int, int, bool, int, int, int, int]


class TraceGenerator:
    """Lazily generates one core's stream of decoded :data:`Access` tuples.

    The address model keeps a current row region per stream; with
    probability ``row_locality`` the next access strides within the region
    (a row hit under the open-row policy), otherwise it jumps to a random
    region of the working set.  Gaps are geometrically distributed around
    the profile's mean, giving bursty, realistic arrival patterns.
    """

    def __init__(self, profile: TraceProfile, mapper: AddressMapper, seed: int):
        self.profile = profile
        self.mapper = mapper
        self.lines_per_row = lines_per_row = mapper.lines_per_row
        self.rng = np.random.default_rng(seed)
        # Spread each core's working set across the row space via a seeded
        # base offset so multiprogrammed cores do not collide on rows.
        self._region_base = int(self.rng.integers(0, 1 << 20)) * profile.working_set_rows
        self._region = self._pick_region()
        self._col = int(self.rng.integers(0, lines_per_row))
        self._batch: list[Access] = []
        self._batch_pos = 0

    def _pick_region(self) -> int:
        return self._region_base + int(self.rng.integers(0, self.profile.working_set_rows))

    def _refill(self, n: int = 512) -> None:
        """Vectorized batch generation (bit-identical to the scalar walk).

        The sequential recurrence — a row-region carried across local
        steps, a column striding from the last jump — resolves in closed
        form per element: everything between two region jumps is the jump
        anchor's (region, column) plus ``stride`` per local step since.
        The batch's lines are then decoded in one vectorised call.
        """
        p = self.profile
        gaps = self.rng.geometric(min(1.0, 1.0 / max(p.mean_gap, 1.0)), size=n)
        local = self.rng.random(n) < p.row_locality
        is_read = self.rng.random(n) < p.read_fraction
        region_jumps = self.rng.integers(0, p.working_set_rows, size=n)
        cols = self.rng.integers(0, self.lines_per_row, size=n)
        lines_per_row = self.lines_per_row

        index = np.arange(n)
        # Most recent non-local step at or before each position (-1: none
        # yet in this batch — the carried-in region/column anchor applies).
        anchor = np.maximum.accumulate(np.where(local, -1, index))
        anchored = anchor >= 0
        safe_anchor = np.where(anchored, anchor, 0)
        regions = np.where(
            anchored, self._region_base + region_jumps[safe_anchor], self._region
        )
        # Column at the anchor, advanced by one stride per local step since
        # (steps counts from the carry-in access for pre-anchor runs).
        base_col = np.where(anchored, cols[safe_anchor], self._col)
        steps = index - anchor
        col_seq = (base_col + p.stream_stride * steps) % lines_per_row
        lines = regions * lines_per_row + col_seq

        self._region = int(regions[-1])
        self._col = int(col_seq[-1])
        channel, rank, bank, row = self.mapper.decode_batch(lines)
        self._batch = list(zip(
            gaps.tolist(), lines.tolist(), (~is_read).tolist(),
            channel.tolist(), rank.tolist(), bank.tolist(), row.tolist(),
        ))
        self._batch_pos = 0

    def next_access(self) -> Access:
        """The next decoded access (see :data:`Access`)."""
        if self._batch_pos >= len(self._batch):
            self._refill()
        item = self._batch[self._batch_pos]
        self._batch_pos += 1
        return item
