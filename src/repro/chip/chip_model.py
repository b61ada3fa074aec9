"""The behavioural DRAM chip: executes picosecond-timed command sequences.

This is the device-under-test for the §4 experiments.  It implements the
protocol-level physics that make HiRA possible:

- a bank holds at most one *normally* open row, but an early PRE followed by
  a quick ACT (HiRA) leaves the first row's wordline up while the second row
  activates — provided the two subarrays are electrically isolated;
- rows whose sense amplifiers were not yet enabled when the PRE arrived lose
  their data (t1 too small);
- rows whose local row buffer was already handed to the bank I/O cannot have
  their precharge interrupted cleanly (t1 too large);
- non-isolated subarray pairs corrupt each other through shared bitlines /
  sense amplifiers;
- Samsung-/Micron-like designs silently drop the violating PRE or ACT
  (§12), so HiRA neither works nor corrupts data on them;
- one PRE closes *all* open wordlines in the bank (paper footnote 1);
- every activation disturbs the activated row's physical neighbours
  (RowHammer), and a completed restoration imperfectly clears accumulated
  disturbance (see :mod:`repro.chip.disturb`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chip.design import ChipDesign
from repro.chip.disturb import DisturbState
from repro.chip.rng import KeyedStream
from repro.chip.variation import RowTiming, VariationModel
from repro.dram.commands import Command, CommandKind
from repro.dram.errors import DramError, TimingViolation
from repro.dram.timing import DDR4_2400, TimingParams


@dataclass(slots=True)
class _OpenRow:
    row: int
    act_ps: int
    #: Physical row and its circuit characteristics, resolved at ACT time
    #: (both are pure functions of the chip, bank and row).
    phys: int
    timing: RowTiming
    corrupted: bool = False


@dataclass
class _ChipBankState:
    #: Open rows keyed by subarray index.
    open_rows: dict[int, _OpenRow] = field(default_factory=dict)
    #: 'precharged' | 'open' | 'precharging'
    phase: str = "precharged"
    pre_ps: int = 0
    #: Subarray whose local row buffer owns the bank I/O.
    io_owner: int | None = None


@dataclass
class ChipStats:
    """Event counters exposed for experiments and tests."""

    acts: int = 0
    pres: int = 0
    refs: int = 0
    reads: int = 0
    writes: int = 0
    hira_attempts: int = 0
    hira_successes: int = 0
    ignored_pre: int = 0
    ignored_act: int = 0
    corrupted_rows: int = 0
    bitflips_injected: int = 0


class DramChip:
    """A single DRAM chip of a given :class:`~repro.chip.design.ChipDesign`.

    Commands must be issued in non-decreasing time order.  Row data is
    allocated lazily; uninitialized rows read as all-zero.
    """

    def __init__(
        self,
        design: ChipDesign,
        timing: TimingParams = DDR4_2400,
        chip_seed: int = 0,
    ):
        self.design = design
        self.timing = timing
        self.chip_seed = chip_seed
        self.geometry = design.geometry
        self.isolation = design.build_isolation_map()
        self.variation = VariationModel(design.variation, chip_seed)
        self.disturb = DisturbState(self.variation)
        self.stats = ChipStats()
        self._banks: dict[int, _ChipBankState] = {}
        self._data: dict[tuple[int, int], np.ndarray] = {}
        self._row_bytes = self.geometry.row_bits // 8
        self._last_cmd_ps = -1
        self._ref_pointer: dict[int, int] = {}
        self._flip_salt = 0
        self._flip_stream = KeyedStream(chip_seed, 0xF11B5)
        self._corrupt_stream = KeyedStream(chip_seed, 0xDEAD)
        #: Logical row -> (physical row, physical neighbours, subarray),
        #: filled on first use; only rows that passed ``check_row`` are
        #: ever stored.
        self._resolved: dict[int, tuple[int, tuple[int, ...], int]] = {}

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _row_array(self, bank: int, row: int) -> np.ndarray:
        key = (bank, row)
        arr = self._data.get(key)
        if arr is None:
            arr = np.zeros(self._row_bytes, dtype=np.uint8)
            self._data[key] = arr
        return arr

    def _inject_flips(self, bank: int, row: int, count: int) -> None:
        if count <= 0:
            return
        arr = self._row_array(bank, row)
        self._flip_salt += 1
        rng = self._flip_stream.at(bank, row, self._flip_salt)
        positions = rng.integers(0, self._row_bytes, size=count)
        bits = rng.integers(0, 8, size=count)
        # XOR commutes and ``.at`` applies every occurrence of a repeated
        # position, so this equals flipping the bits one at a time in order.
        np.bitwise_xor.at(arr, positions, (1 << bits).astype(np.uint8))
        self.stats.bitflips_injected += int(count)

    def _corrupt_row(self, bank: int, row: int, reason: str) -> None:
        """Structural corruption: flip a seeded burst of bits in the row."""
        burst = int(self._corrupt_stream.at(bank, row, self._flip_salt).integers(4, 64))
        self._inject_flips(bank, row, burst)
        self.stats.corrupted_rows += 1

    def _is_checkerboard(self, bank: int, row: int) -> bool:
        arr = self._data.get((bank, row))
        if arr is None or arr.size == 0:
            return False
        return int(arr[0]) in (0xAA, 0x55)

    # ------------------------------------------------------------------
    # Command plane
    # ------------------------------------------------------------------
    def issue(self, cmd: Command) -> None:
        """Execute one command; commands must arrive in time order."""
        if cmd.time_ps < self._last_cmd_ps:
            raise TimingViolation(
                f"command at {cmd.time_ps} ps issued after {self._last_cmd_ps} ps"
            )
        self._last_cmd_ps = cmd.time_ps
        kind = cmd.kind
        if kind is CommandKind.ACT:
            self._do_act(cmd.bank, cmd.row, cmd.time_ps)
        elif kind is CommandKind.PRE:
            self._do_pre(cmd.bank, cmd.time_ps)
        elif kind is CommandKind.RD:
            self._do_read(cmd.bank, cmd.time_ps)
        elif kind is CommandKind.WR:
            self._do_write_cmd(cmd.bank, cmd.time_ps, cmd.meta)
        elif kind is CommandKind.REF:
            self._do_ref(cmd.time_ps)
        elif kind is CommandKind.NOP:
            pass
        else:  # pragma: no cover - enum is closed
            raise DramError(f"unsupported command {kind}")

    def _physical(self, row: int) -> tuple[int, tuple[int, ...], int]:
        """A logical row's physical row, physical neighbours and subarray.

        The design's scrambling is fixed (and stays within the subarray),
        so each row is resolved and range-checked once per chip.  All
        per-row variation belongs to the physical row.
        """
        resolved = self._resolved.get(row)
        if resolved is None:
            resolved = (
                self.design.logical_to_physical(row),
                tuple(self.design.physical_neighbors(row)),
                row // self.geometry.rows_per_subarray,
            )
            self._resolved[row] = resolved
        return resolved

    def _bank(self, bank: int) -> _ChipBankState:
        state = self._banks.get(bank)
        if state is None:
            self.geometry.check_bank(bank)
            state = _ChipBankState()
            self._banks[bank] = state
        return state

    # -- ACT ------------------------------------------------------------
    def _do_act(self, bank: int, row: int, now_ps: int) -> None:
        resolved = self._physical(row)
        self.stats.acts += 1
        state = self._bank(bank)
        self._maybe_settle(bank, state, now_ps)

        if state.phase == "open":
            # JEDEC-illegal ACT to an open bank: chips ignore it.
            self.stats.ignored_act += 1
            return

        if state.phase == "precharging":
            self._act_during_precharge(bank, state, row, resolved, now_ps)
            return

        self._fresh_activation(bank, state, row, resolved, now_ps)

    def _fresh_activation(
        self, bank: int, state: _ChipBankState, row: int, resolved: tuple, now_ps: int
    ) -> None:
        phys, neighbors, sa = resolved
        timing = self.variation.row_timing(bank, phys)
        self._sense_row(bank, row, phys, timing)
        state.open_rows[sa] = _OpenRow(row, now_ps, phys, timing)
        state.phase = "open"
        state.io_owner = sa
        self.disturb.hammer(bank, neighbors)

    def _act_during_precharge(
        self, bank: int, state: _ChipBankState, row: int, resolved: tuple, now_ps: int
    ) -> None:
        t2 = now_ps - state.pre_ps
        vendor = self.design.vendor
        if vendor.ignores_fast_act(t2, self.timing.trp):
            self.stats.ignored_act += 1
            self._settle(bank, state, now_ps)
            return

        interruptible = {
            sa: open_row
            for sa, open_row in state.open_rows.items()
            if t2 <= open_row.timing.wordline_window_ps
        }
        if not interruptible:
            # Precharge already completed; this is a fresh ACT issued with a
            # violated tRP — the new row senses unprecharged bitlines.
            self._settle(bank, state, now_ps)
            self._fresh_activation(bank, state, row, resolved, now_ps)
            if t2 < round(self.timing.trp * 0.9):
                self._corrupt_row(bank, row, "act-under-trp")
                state.open_rows[resolved[2]].corrupted = True
            return

        # --- HiRA: the second ACT interrupts the precharge -------------
        self.stats.hira_attempts += 1
        sa_b = resolved[2]
        success = True
        for sa_a, open_row in list(state.open_rows.items()):
            timing_a = open_row.timing
            t1 = state.pre_ps - open_row.act_ps
            checkerboard = self._is_checkerboard(bank, open_row.row)
            if sa_a not in interruptible:
                # This row's wordline already dropped: it simply closed.
                self._close_row(bank, state, sa_a, state.pre_ps)
                continue
            if not self.isolation.isolated(sa_a, sa_b):
                # Shared bitlines / sense amps: charge sharing corrupts both.
                if not open_row.corrupted:
                    self._corrupt_row(bank, open_row.row, "not-isolated")
                    open_row.corrupted = True
                self._corrupt_row(bank, row, "not-isolated")
                success = False
                continue
            if not timing_a.t1_window_ok(t1, checkerboard):
                if not open_row.corrupted:
                    self._corrupt_row(bank, open_row.row, "t1-window")
                    open_row.corrupted = True
                success = False
            if not timing_a.t2_isolates_io(t2):
                if not open_row.corrupted:
                    self._corrupt_row(bank, open_row.row, "io-contention")
                    open_row.corrupted = True
                success = False

        self._fresh_activation(bank, state, row, resolved, now_ps)
        if success:
            self.stats.hira_successes += 1

    def _sense_row(self, bank: int, row: int, phys: int, timing: RowTiming) -> None:
        """Sensing amplifies the stored charge: materialize pending flips."""
        flips = self.disturb.flips_on_sense(bank, phys, timing)
        if flips:
            self._inject_flips(bank, row, flips)
            # Sensing latches current charge; pending disturbance becomes
            # part of the restored value, so clear the peak down to it.
            entry = self.disturb.rows[(bank, phys)]
            entry.disturb = 0.0
            entry.peak = 0.0

    # -- PRE ------------------------------------------------------------
    def _do_pre(self, bank: int, now_ps: int) -> None:
        self.stats.pres += 1
        state = self._bank(bank)
        self._maybe_settle(bank, state, now_ps)

        if state.phase == "precharged":
            return
        if state.phase == "precharging":
            # Back-to-back PRE: resolve the first, stay precharged.
            self._settle(bank, state, now_ps)
            return

        # An open bank holds at least one open row; the shortest t1 is the
        # latest activation's.
        latest_act_ps = 0
        for open_row in state.open_rows.values():
            if open_row.act_ps > latest_act_ps:
                latest_act_ps = open_row.act_ps
        if self.design.vendor.ignores_early_pre(now_ps - latest_act_ps, self.timing.tras):
            self.stats.ignored_pre += 1
            return

        for open_row in state.open_rows.values():
            timing_row = open_row.timing
            t1 = now_ps - open_row.act_ps
            checkerboard = self._is_checkerboard(bank, open_row.row)
            need = timing_row.sa_enable_ps + (
                timing_row.checkerboard_margin_ps if checkerboard else 0
            )
            if t1 < need and not open_row.corrupted:
                # Sense amps never latched: charge sharing destroyed the row.
                self._corrupt_row(bank, open_row.row, "pre-before-sense")
                open_row.corrupted = True
        state.phase = "precharging"
        state.pre_ps = now_ps

    def _maybe_settle(self, bank: int, state: _ChipBankState, now_ps: int) -> None:
        """Complete a pending precharge whose interrupt window has passed."""
        if state.phase != "precharging":
            return
        max_window = 0
        for open_row in state.open_rows.values():
            window = open_row.timing.wordline_window_ps
            if window > max_window:
                max_window = window
        if now_ps - state.pre_ps > max_window:
            self._settle(bank, state, now_ps)

    def _settle(self, bank: int, state: _ChipBankState, now_ps: int) -> None:
        """Unconditionally finish the pending precharge."""
        for sa in list(state.open_rows):
            self._close_row(bank, state, sa, state.pre_ps)
        state.phase = "precharged"
        state.io_owner = None

    def _close_row(self, bank: int, state: _ChipBankState, sa: int, close_ps: int) -> None:
        open_row = state.open_rows.pop(sa)
        phys = open_row.phys
        timing_row = open_row.timing
        duration = close_ps - open_row.act_ps
        needed = timing_row.restore_needed_ps(self.timing.tras)
        if duration >= needed:
            self.disturb.on_restore(bank, phys, timing_row, fraction=1.0)
        elif duration >= timing_row.sa_enable_ps:
            self.disturb.on_restore(bank, phys, timing_row, fraction=duration / needed)
        # Rows closed before sense-amp enable were corrupted at PRE time.

    # -- RD / WR ----------------------------------------------------------
    def _do_read(self, bank: int, now_ps: int) -> None:
        self.stats.reads += 1
        state = self._bank(bank)
        self._maybe_settle(bank, state, now_ps)
        if state.phase != "open" or state.io_owner is None:
            raise DramError("RD issued with no open row connected to bank I/O")
        open_row = state.open_rows[state.io_owner]
        if now_ps - open_row.act_ps < self.timing.trcd:
            raise TimingViolation("RD issued before tRCD elapsed")

    def read_open_row(self, bank: int) -> tuple[int, np.ndarray]:
        """Data of the row currently connected to the bank I/O.

        Models the column-access path after an activation (or after HiRA's
        second ACT, which hands the bank I/O to RowB's local row buffer).
        """
        state = self._bank(bank)
        if state.phase != "open" or state.io_owner is None:
            raise DramError("no open row to read")
        open_row = state.open_rows[state.io_owner]
        return open_row.row, self._row_array(bank, open_row.row).copy()

    def _do_write_cmd(self, bank: int, now_ps: int, meta: dict) -> None:
        self.stats.writes += 1
        state = self._bank(bank)
        self._maybe_settle(bank, state, now_ps)
        if state.phase != "open" or state.io_owner is None:
            raise DramError("WR issued with no open row connected to bank I/O")
        open_row = state.open_rows[state.io_owner]
        if now_ps - open_row.act_ps < self.timing.trcd:
            raise TimingViolation("WR issued before tRCD elapsed")
        fill = meta.get("fill")
        if fill is not None:
            self._row_array(bank, open_row.row)[:] = fill
            self.disturb.on_write(bank, open_row.phys)

    # -- REF --------------------------------------------------------------
    def _do_ref(self, now_ps: int) -> None:
        """Rank-level refresh: the chip refreshes a batch of rows per bank."""
        self.stats.refs += 1
        rows_per_ref = max(
            1,
            round(
                self.geometry.rows_per_bank
                * self.timing.trefi
                / self.timing.trefw
            ),
        )
        for bank in range(self.geometry.banks_per_rank):
            pointer = self._ref_pointer.get(bank, 0)
            for i in range(rows_per_ref):
                row = (pointer + i) % self.geometry.rows_per_bank
                phys = self._physical(row)[0]
                timing_row = self.variation.row_timing(bank, phys)
                self._sense_row(bank, row, phys, timing_row)
                self.disturb.on_restore(bank, phys, timing_row, fraction=1.0)
            self._ref_pointer[bank] = (pointer + rows_per_ref) % self.geometry.rows_per_bank

    # ------------------------------------------------------------------
    # Bulk operations (the FPGA-side hammer loop of the real testbed)
    # ------------------------------------------------------------------
    def bulk_hammer(self, bank: int, rows: list[int], count: int) -> None:
        """Activate each row ``count`` times with nominal timing.

        Equivalent to the SoftMC loop of ACT/PRE pairs in Algorithm 2 but
        executed in O(rows) — each activation hammers the row's physical
        neighbours and fully restores the row itself.
        """
        state = self._bank(bank)
        if state.phase == "precharging":
            # Hammering starts at least tRP after the closing PRE, which is
            # beyond every wordline-interrupt window: settle the precharge.
            self._settle(bank, state, self._last_cmd_ps)
        if state.phase != "precharged":
            raise DramError("bulk_hammer requires a precharged bank")
        self.stats.acts += count * len(rows)
        self.stats.pres += count * len(rows)
        for row in rows:
            phys, neighbors, __ = self._physical(row)
            self._sense_row(bank, row, phys, self.variation.row_timing(bank, phys))
            self.disturb.hammer(bank, neighbors, count)
        # Advance time past the hammering burst.
        self._last_cmd_ps += count * len(rows) * self.timing.trc

    def open_row_count(self, bank: int) -> int:
        """Number of concurrently open rows (2 after a successful HiRA)."""
        state = self._bank(bank)
        self._maybe_settle(bank, state, self._last_cmd_ps)
        return len(state.open_rows) if state.phase == "open" else 0
