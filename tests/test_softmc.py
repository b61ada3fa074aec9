"""SoftMC host, command programs, and data patterns."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.chip.chip_model import DramChip
from repro.dram.commands import CommandKind
from repro.dram.errors import GeometryError, TimingViolation
from repro.experiments.coverage import pair_passes
from repro.experiments.second_act import pick_dummy_row
from repro.rowhammer.threshold import HammerTestConfig, run_hammer_test
from repro.softmc.host import SoftMCHost
from repro.softmc.patterns import ALL_PATTERNS, DataPattern
from repro.softmc.program import Program

from tests.conftest import isolated_pair


class TestPatterns:
    def test_four_patterns(self):
        assert len(ALL_PATTERNS) == 4
        assert {p.byte for p in ALL_PATTERNS} == {0xFF, 0x00, 0xAA, 0x55}

    def test_inverses_are_involutions(self):
        for pattern in ALL_PATTERNS:
            assert pattern.inverse.inverse is pattern
            assert pattern.inverse.byte == (~pattern.byte) & 0xFF

    def test_count_bitflips_zero_on_match(self):
        arr = np.full(64, 0xFF, dtype=np.uint8)
        assert DataPattern.ALL_ONES.count_bitflips(arr) == 0

    @pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=lambda p: p.name)
    def test_inverse_fill_flips_every_bit(self, pattern):
        arr = np.full(16, pattern.inverse.byte, dtype=np.uint8)
        assert pattern.count_bitflips(arr) == 16 * 8

    def test_count_bitflips_counts_each_bit(self):
        arr = np.zeros(8, dtype=np.uint8)
        arr[3] = 0b0000_0101
        assert DataPattern.ALL_ZEROS.count_bitflips(arr) == 2

    @pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=lambda p: p.name)
    def test_count_bitflips_equals_unpackbits_count(self, pattern):
        rng = np.random.default_rng(pattern.byte)
        for size in (1, 7, 64, 1024):
            rows = [rng.integers(0, 256, size=size, dtype=np.uint8),
                    np.full(size, pattern.byte, dtype=np.uint8)]
            # Flip bits at repeated positions, as the chip's injection does.
            positions = rng.integers(0, size, size=3 * size)
            bits = rng.integers(0, 8, size=3 * size)
            np.bitwise_xor.at(rows[1], positions, (1 << bits).astype(np.uint8))
            for row in rows:
                diff = np.bitwise_xor(row, np.uint8(pattern.byte))
                assert pattern.count_bitflips(row) == int(np.unpackbits(diff).sum())


class TestProgram:
    def test_waits_accumulate(self):
        prog = Program()
        prog.act(0, 1, wait_ps=3_000).pre(0, wait_ps=3_000).act(0, 2, wait_ps=32_000)
        times = [cmd.time_ps for cmd in prog]
        assert times == [0, 3_000, 6_000]
        assert prog.cursor_ps == 38_000

    def test_hira_builder_matches_manual(self):
        manual = Program().act(0, 1, 3_000).pre(0, 3_000).act(0, 2, 32_000)
        built = Program().hira(0, 1, 2, t1_ps=3_000, t2_ps=3_000, settle_ps=32_000)
        assert list(manual) == list(built)

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            Program().act(0, 1, wait_ps=-1)

    @pytest.mark.parametrize("build", [
        lambda p: p.act(0, 1, -5_000),
        lambda p: p.pre(0, -5_000),
        lambda p: p.rd(0, 0, -5_000),
        lambda p: p.wr(0, 0, -5_000),
        lambda p: p.wr(0, 0, -5_000, fill=0xAA),
        lambda p: p.wait(-5_000),
    ], ids=["act", "pre", "rd", "wr", "wr-fill", "wait"])
    def test_every_builder_rejects_negative_wait(self, build):
        prog = Program(start_ps=10_000)
        with pytest.raises(ValueError):
            build(prog)
        assert prog.cursor_ps == 10_000

    def test_wait_instruction(self):
        prog = Program().wait(10_000)
        assert prog.cursor_ps == 10_000
        assert len(prog) == 0

    def test_wr_with_fill_meta(self):
        prog = Program().wr(0, 0, wait_ps=1_500, fill=0xAA)
        assert prog.commands[0].meta == {"fill": 0xAA}

    def test_start_offset(self):
        prog = Program(start_ps=5_000).act(0, 1, wait_ps=1_500)
        assert prog.commands[0].time_ps == 5_000


class TestHost:
    def test_slot_spacing_enforced(self, host):
        prog = host.program()
        prog.act(0, 1, wait_ps=500)  # below the 1.5 ns slot
        prog.pre(0, wait_ps=1_500)
        with pytest.raises(TimingViolation):
            host.run(prog)

    def test_time_advances_across_programs(self, host):
        t0 = host.time_ps
        host.initialize(0, 3, DataPattern.ALL_ONES)
        assert host.time_ps > t0

    def test_compare_data_detects_mismatch(self, host):
        host.initialize(0, 3, DataPattern.ALL_ONES)
        assert host.compare_data(DataPattern.ALL_ZEROS, 0, 3) == 8 * host.chip.geometry.row_bits // 8

    def test_activate_refresh_preserves_data(self, host):
        host.initialize(0, 9, DataPattern.CHECKERBOARD)
        host.activate_refresh(0, 9)
        assert host.compare_data(DataPattern.CHECKERBOARD, 0, 9) == 0

    def test_program_that_raises_part_way_does_not_strand_the_next(self, host):
        tp = host.chip.timing
        bad = host.chip.geometry.rows_per_bank
        # RowA's ACT and the PRE reach the chip before RowB is rejected.
        with pytest.raises(GeometryError):
            host.run(host.program().hira(0, 5, bad, tp.hira_t1, tp.hira_t2, tp.tras))
        assert host.time_ps >= host.chip._last_cmd_ps + host.slot_ps
        host.run(host.program().act(1, 5, wait_ps=tp.tras).pre(1, wait_ps=tp.trp))

    def test_slot_violation_does_not_strand_the_next_program(self, host):
        prog = host.program().act(0, 1, wait_ps=500).pre(0, wait_ps=1_500)
        with pytest.raises(TimingViolation):
            host.run(prog)
        assert host.time_ps >= host.chip._last_cmd_ps + host.slot_ps
        host.run(host.program().pre(0, wait_ps=host.chip.timing.trp))

    def test_advance_rejects_negative(self, host):
        with pytest.raises(ValueError):
            host.advance(-5)


def _guard_commands(monkeypatch) -> list[int]:
    """Wrap ``SoftMCHost.run`` so that every program's commands must come
    back exactly as built: ``Command`` is not frozen, so nothing but this
    check stops the chip or the host from rewriting one.  Returns the
    per-program command counts checked so far."""
    run = SoftMCHost.run
    checked: list[int] = []

    def guarded(self, program):
        before = [astuple(cmd) for cmd in program.commands]
        run(self, program)
        assert [astuple(cmd) for cmd in program.commands] == before
        checked.append(len(before))

    monkeypatch.setattr(SoftMCHost, "run", guarded)
    return checked


def _plant_rewrite(monkeypatch) -> None:
    """A chip that moves each command's time stamp after executing it."""
    issue = DramChip.issue

    def rewriting(self, cmd):
        issue(self, cmd)
        cmd.time_ps += 1

    monkeypatch.setattr(DramChip, "issue", rewriting)


def _hammer_config(chip) -> HammerTestConfig:
    victim = chip.geometry.row_of(2, 30)
    return HammerTestConfig(
        bank=0, victim=victim,
        aggressors=tuple(chip.design.aggressors_for_victim(victim)),
        dummy_row=pick_dummy_row(chip, victim),
    )


class TestCommandsStayAsBuilt:
    """Running a program leaves its commands untouched (Algorithms 1, 2)."""

    def test_algorithm1_pair_trial(self, monkeypatch, chip, host):
        checked = _guard_commands(monkeypatch)
        row_a, row_b = isolated_pair(chip)
        assert pair_passes(host, 0, row_a, row_b, t1_ps=3_000, t2_ps=3_000)
        # Per pattern: two initializes, one HiRA, two read-backs (2 each).
        assert len(checked) == len(ALL_PATTERNS) * 7 and sum(checked) > 0

    @pytest.mark.parametrize("with_hira", [False, True])
    def test_algorithm2_iteration(self, monkeypatch, chip, host, with_hira):
        checked = _guard_commands(monkeypatch)
        run_hammer_test(host, _hammer_config(chip), 20_000, with_hira=with_hira)
        # Four initializes, the victim's read-back (2) and HiRA if armed.
        assert len(checked) == 6 + with_hira

    def test_guard_catches_a_planted_rewrite(self, monkeypatch, chip, host):
        _guard_commands(monkeypatch)
        _plant_rewrite(monkeypatch)
        with pytest.raises(AssertionError):
            run_hammer_test(host, _hammer_config(chip), 20_000, with_hira=True)
