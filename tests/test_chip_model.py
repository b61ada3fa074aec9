"""The behavioural chip: HiRA physics, vendor behaviour, protocol rules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.chip_model import DramChip
from repro.chip.design import make_design
from repro.chip.rng import rng_for
from repro.chip.variation import VariationModel
from repro.chip.vendor import VendorClass
from repro.dram.commands import Command, CommandKind
from repro.dram.errors import DramError, GeometryError, TimingViolation
from repro.softmc.host import SoftMCHost
from repro.softmc.patterns import DataPattern

from tests.conftest import isolated_pair, non_isolated_pair


def flips(host, pattern, bank, row):
    return host.compare_data(pattern, bank, row)


class TestBasicProtocol:
    def test_write_then_read_roundtrip(self, host):
        host.initialize(0, 17, DataPattern.CHECKERBOARD)
        data = host.read_row(0, 17)
        assert np.all(data == 0xAA)

    def test_uninitialized_rows_read_zero(self, host):
        assert np.all(host.read_row(0, 40) == 0)

    def test_commands_must_be_time_ordered(self, chip):
        chip.issue(Command(kind=CommandKind.ACT, time_ps=10_000, bank=0, row=1))
        with pytest.raises(TimingViolation):
            chip.issue(Command(kind=CommandKind.ACT, time_ps=5_000, bank=1, row=1))

    def test_read_without_open_row_rejected(self, chip):
        with pytest.raises(DramError):
            chip.issue(Command(kind=CommandKind.RD, time_ps=1_000, bank=0, col=0))

    def test_read_before_trcd_rejected(self, chip):
        chip.issue(Command(kind=CommandKind.ACT, time_ps=0, bank=0, row=1))
        with pytest.raises(TimingViolation):
            chip.issue(Command(kind=CommandKind.RD, time_ps=5_000, bank=0, col=0))

    def test_act_to_open_bank_ignored(self, chip):
        chip.issue(Command(kind=CommandKind.ACT, time_ps=0, bank=0, row=1))
        chip.issue(Command(kind=CommandKind.ACT, time_ps=50_000, bank=0, row=2))
        assert chip.stats.ignored_act == 1


class TestHiraSuccess:
    def test_isolated_pair_no_corruption(self, chip, host):
        row_a, row_b = isolated_pair(chip)
        for pattern in (DataPattern.ALL_ONES, DataPattern.CHECKERBOARD):
            host.initialize(0, row_a, pattern)
            host.initialize(0, row_b, pattern.inverse)
            host.hira(0, row_a, row_b)
            assert flips(host, pattern, 0, row_a) == 0
            assert flips(host, pattern.inverse, 0, row_b) == 0

    def test_two_rows_open_after_hira(self, chip, host):
        row_a, row_b = isolated_pair(chip)
        host.initialize(0, row_a, DataPattern.ALL_ONES)
        host.initialize(0, row_b, DataPattern.ALL_ZEROS)
        host.hira(0, row_a, row_b, close=False)
        assert chip.open_row_count(0) == 2

    def test_one_pre_closes_both_rows(self, chip, host):
        """Paper footnote 1: a single PRE closes all wordlines."""
        row_a, row_b = isolated_pair(chip)
        host.initialize(0, row_a, DataPattern.ALL_ONES)
        host.initialize(0, row_b, DataPattern.ALL_ZEROS)
        host.hira(0, row_a, row_b, close=True)
        host.advance(100_000)
        assert chip.open_row_count(0) == 0

    def test_bank_io_owned_by_second_row(self, chip, host):
        row_a, row_b = isolated_pair(chip)
        host.initialize(0, row_a, DataPattern.ALL_ONES)
        host.initialize(0, row_b, DataPattern.ALL_ZEROS)
        host.hira(0, row_a, row_b, close=False)
        open_row, data = chip.read_open_row(0)
        assert open_row == row_b
        assert np.all(data == 0x00)

    def test_hira_success_counted(self, chip, host):
        row_a, row_b = isolated_pair(chip)
        host.initialize(0, row_a, DataPattern.ALL_ONES)
        host.initialize(0, row_b, DataPattern.ALL_ZEROS)
        before = chip.stats.hira_successes
        host.hira(0, row_a, row_b)
        assert chip.stats.hira_successes == before + 1


class TestHiraFailureModes:
    def test_non_isolated_pair_corrupts(self, chip, host):
        row_a, row_b = non_isolated_pair(chip)
        host.initialize(0, row_a, DataPattern.ALL_ONES)
        host.initialize(0, row_b, DataPattern.ALL_ZEROS)
        host.hira(0, row_a, row_b)
        total = flips(host, DataPattern.ALL_ONES, 0, row_a) + flips(
            host, DataPattern.ALL_ZEROS, 0, row_b
        )
        assert total > 0

    def test_same_subarray_pair_corrupts(self, chip, host):
        row_a = chip.geometry.row_of(4, 10)
        row_b = chip.geometry.row_of(4, 90)
        host.initialize(0, row_a, DataPattern.ALL_ONES)
        host.initialize(0, row_b, DataPattern.ALL_ZEROS)
        host.hira(0, row_a, row_b)
        total = flips(host, DataPattern.ALL_ONES, 0, row_a) + flips(
            host, DataPattern.ALL_ZEROS, 0, row_b
        )
        assert total > 0

    def test_t1_too_small_corrupts_first_row(self, chip, host):
        row_a, row_b = isolated_pair(chip)
        # Find a row whose sense amps need more than 1.5 ns.
        timing = chip.variation.row_timing(0, chip.design.logical_to_physical(row_a))
        host.initialize(0, row_a, DataPattern.ALL_ONES)
        host.initialize(0, row_b, DataPattern.ALL_ZEROS)
        host.hira(0, row_a, row_b, t1_ps=1_500)
        if timing.sa_enable_ps > 1_500:
            assert flips(host, DataPattern.ALL_ONES, 0, row_a) > 0
        else:
            assert flips(host, DataPattern.ALL_ONES, 0, row_a) == 0

    def test_nominal_sequences_never_corrupt(self, chip, host):
        """Legal JEDEC timing preserves data for any row pair order."""
        rows = [3, 700, 1_500]
        for row in rows:
            host.initialize(0, row, DataPattern.INV_CHECKERBOARD)
        for row in rows:
            host.activate_refresh(0, row)
        for row in rows:
            assert flips(host, DataPattern.INV_CHECKERBOARD, 0, row) == 0


class TestVendorBehaviour:
    def test_samsung_like_ignores_early_pre(self, samsung_chip):
        host = SoftMCHost(samsung_chip)
        row_a, row_b = isolated_pair(samsung_chip)
        host.initialize(0, row_a, DataPattern.ALL_ONES)
        host.initialize(0, row_b, DataPattern.ALL_ZEROS)
        host.hira(0, row_a, row_b)
        assert samsung_chip.stats.ignored_pre >= 1
        # No corruption, but also no HiRA success.
        assert samsung_chip.stats.hira_successes == 0
        assert host.compare_data(DataPattern.ALL_ONES, 0, row_a) == 0
        assert host.compare_data(DataPattern.ALL_ZEROS, 0, row_b) == 0

    def test_micron_like_ignores_fast_act(self, micron_chip):
        host = SoftMCHost(micron_chip)
        row_a, row_b = isolated_pair(micron_chip)
        host.initialize(0, row_a, DataPattern.ALL_ONES)
        host.initialize(0, row_b, DataPattern.ALL_ZEROS)
        host.hira(0, row_a, row_b)
        assert micron_chip.stats.ignored_act >= 1
        assert micron_chip.stats.hira_successes == 0
        assert host.compare_data(DataPattern.ALL_ONES, 0, row_a) == 0
        assert host.compare_data(DataPattern.ALL_ZEROS, 0, row_b) == 0


class TestRefreshAndHammer:
    def test_ref_command_advances_pointer(self, chip):
        chip.issue(Command(kind=CommandKind.REF, time_ps=0))
        assert chip.stats.refs == 1

    def test_bulk_hammer_requires_precharged(self, chip, host):
        host.initialize(0, 5, DataPattern.ALL_ONES)
        prog = host.program().act(0, 5, wait_ps=chip.timing.tras)
        host.run(prog)
        with pytest.raises(DramError):
            chip.bulk_hammer(0, [6], 100)

    def test_hammering_flips_victim_eventually(self, chip, host):
        victim = chip.geometry.row_of(2, 20)
        aggressors = chip.design.aggressors_for_victim(victim)
        assert len(aggressors) == 2
        host.initialize(0, victim, DataPattern.ALL_ONES)
        for aggr in aggressors:
            host.initialize(0, aggr, DataPattern.ALL_ZEROS)
        host.hammer(0, aggressors, 300_000)
        assert host.compare_data(DataPattern.ALL_ONES, 0, victim) > 0

    def test_refresh_between_hammers_protects(self, chip, host):
        victim = chip.geometry.row_of(2, 40)
        aggressors = chip.design.aggressors_for_victim(victim)
        phys = chip.design.logical_to_physical(victim)
        nrh = chip.variation.row_timing(0, phys).nrh
        half = int(nrh * 0.35)  # below threshold per half, above in total
        host.initialize(0, victim, DataPattern.ALL_ONES)
        for aggr in aggressors:
            host.initialize(0, aggr, DataPattern.ALL_ZEROS)
        host.hammer(0, aggressors, half)
        host.activate_refresh(0, victim)
        host.hammer(0, aggressors, half)
        assert host.compare_data(DataPattern.ALL_ONES, 0, victim) == 0


class TestRowResolution:
    def test_out_of_range_rows_rejected_on_every_path(self, chip, host):
        bad = chip.geometry.rows_per_bank
        with pytest.raises(GeometryError):
            chip.bulk_hammer(0, [bad], 10)
        with pytest.raises(GeometryError):
            host.run(host.program().act(0, bad, wait_ps=chip.timing.tras))
        with pytest.raises(GeometryError):
            host.initialize(99, 5, DataPattern.ALL_ONES)
        tp = chip.timing
        # An ACT to an open bank is ignored by the chip, but range-checked.
        host.run(host.program().act(1, 5, wait_ps=tp.tras))
        with pytest.raises(GeometryError):
            host.run(host.program().act(1, bad, wait_ps=tp.tras))
        assert chip.stats.ignored_act == 0
        # HiRA's RowB arrives while the bank is precharging.
        with pytest.raises(GeometryError):
            host.run(host.program().hira(0, 5, bad, tp.hira_t1, tp.hira_t2, tp.tras))
        assert bad not in chip._resolved
        assert not any(key[1] == bad for key in chip._data)

    def test_flip_injection_matches_one_at_a_time_reference(self, chip, host):
        row, count = 7, 3_000
        host.initialize(0, row, DataPattern.CHECKERBOARD)
        expected = chip._row_array(0, row).copy()
        rng = rng_for(chip.chip_seed, 0xF11B5, 0, row, chip._flip_salt + 1)
        positions = rng.integers(0, expected.size, size=count)
        bits = rng.integers(0, 8, size=count)
        # Repeated positions and repeated (position, bit) pairs both occur.
        assert len(set(zip(positions.tolist(), bits.tolist()))) < count
        for pos, bit in zip(positions, bits):
            expected[pos] ^= np.uint8(1 << int(bit))
        chip._inject_flips(0, row, count)
        assert np.array_equal(chip._row_array(0, row), expected)
        assert chip.stats.bitflips_injected == count


#: A HiRA-capable and a Samsung-like design (the latter drops early PREs).
_CACHE_DESIGNS = {
    vendor: make_design(name=vendor.name, vendor=vendor, design_seed=7,
                        subarrays_per_bank=16, rows_per_subarray=128)
    for vendor in (VendorClass.HYNIX_LIKE, VendorClass.SAMSUNG_LIKE)
}
#: Row pool: a few rows in each of four subarrays, so sequences collide.
_ROWS = st.sampled_from([sa * 128 + offset for sa in (0, 1, 5, 15) for offset in (0, 6, 127)])
#: Gaps (ps) inside and outside the sense-amp, interrupt and wordline windows.
_GAPS = st.sampled_from([0, 1_000, 1_500, 3_000, 5_000, 8_000, 14_250, 32_000, 50_000])
_OPS = st.one_of(
    st.tuples(st.just("act"), st.integers(0, 1), _ROWS, _GAPS),
    st.tuples(st.just("pre"), st.integers(0, 1), _GAPS),
    st.tuples(st.just("hira"), st.integers(0, 1), _ROWS, _ROWS, _GAPS, _GAPS, _GAPS),
)


class TestOpenRowPhysics:
    @settings(max_examples=60, deadline=None)
    @given(vendor=st.sampled_from(list(_CACHE_DESIGNS)),
           ops=st.lists(_OPS, min_size=1, max_size=12))
    def test_cached_physics_matches_fresh_lookup(self, vendor, ops):
        design = _CACHE_DESIGNS[vendor]
        chip = DramChip(design, chip_seed=3)
        fresh = VariationModel(design.variation, chip.chip_seed)
        commands = []
        now = 0
        for op in ops:
            if op[0] == "act":
                __, bank, row, wait = op
                commands.append(Command(CommandKind.ACT, now, bank=bank, row=row))
            elif op[0] == "pre":
                __, bank, wait = op
                commands.append(Command(CommandKind.PRE, now, bank=bank))
            else:
                __, bank, row_a, row_b, t1, t2, wait = op
                commands.append(Command(CommandKind.ACT, now, bank=bank, row=row_a))
                commands.append(Command(CommandKind.PRE, now + t1, bank=bank))
                commands.append(Command(CommandKind.ACT, now + t1 + t2, bank=bank, row=row_b))
                now += t1 + t2
            now += wait
        for cmd in commands:
            chip.issue(cmd)
            for bank, state in chip._banks.items():
                for open_row in state.open_rows.values():
                    phys = design.logical_to_physical(open_row.row)
                    assert open_row.phys == phys
                    assert open_row.timing == fresh.row_timing(bank, phys)
