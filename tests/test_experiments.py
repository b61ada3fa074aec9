"""§4 experiment drivers: coverage, second-ACT verification, bank variation."""

import pytest

from repro.chip.vendor import VendorClass
from repro.experiments.bank_variation import (
    coverage_identical_across_banks,
    per_bank_normalized_nrh,
)
from repro.experiments.coverage import (
    algorithm1_coverage,
    coverage_distribution,
    pair_passes,
    tested_row_sample as row_sample,
)
from repro.experiments.modules import (
    TESTED_MODULES,
    build_module_chip,
    build_non_hira_chip,
)
from repro.experiments.second_act import characterize_normalized_nrh, pick_dummy_row
from repro.softmc.host import SoftMCHost

from tests.conftest import isolated_pair, non_isolated_pair


class TestTestedRowSample:
    def test_three_chunks(self, chip):
        rows = row_sample(chip.geometry, chunk=64)
        assert len(rows) == 3 * 64
        assert rows[0] == 0
        assert rows[-1] == chip.geometry.rows_per_bank - 1

    def test_stride_subsamples(self, chip):
        full = row_sample(chip.geometry, chunk=64)
        strided = row_sample(chip.geometry, chunk=64, stride=8)
        assert len(strided) == len(full) // 8
        assert set(strided) <= set(full)


class TestAlgorithm1:
    def test_isolated_pair_passes(self, chip, host):
        row_a, row_b = isolated_pair(chip)
        assert pair_passes(host, 0, row_a, row_b, t1_ps=3_000, t2_ps=3_000)

    def test_non_isolated_pair_fails(self, chip, host):
        row_a, row_b = non_isolated_pair(chip)
        assert not pair_passes(host, 0, row_a, row_b, t1_ps=3_000, t2_ps=3_000)

    def test_coverage_matches_isolation_map(self, chip, host):
        row_a = chip.geometry.row_of(3, 10)
        candidates = [chip.geometry.row_of(sa, 20) for sa in range(chip.geometry.subarrays_per_bank)]
        measured = algorithm1_coverage(host, 0, row_a, candidates, 3_000, 3_000)
        expected = len(chip.isolation.partners(3)) / chip.geometry.subarrays_per_bank
        # One candidate (same subarray) always fails; tolerance accordingly.
        assert measured == pytest.approx(expected, abs=0.1)

    def test_empty_candidates(self, chip, host):
        assert algorithm1_coverage(host, 0, 5, [5], 3_000, 3_000) == 0.0

    def test_distribution_summary(self, chip):
        rows = row_sample(chip.geometry, chunk=32, stride=8)
        dist = coverage_distribution(
            chip, 0, 3_000, 3_000, tested_rows=rows, rows_a=rows[:4]
        )
        assert len(dist.coverages) == 4
        assert 0.0 <= dist.minimum <= dist.average <= dist.maximum <= 1.0


class TestModules:
    def test_seven_modules(self):
        assert len(TESTED_MODULES) == 7
        assert [m.label for m in TESTED_MODULES] == ["A0", "A1", "B0", "B1", "C0", "C1", "C2"]

    def test_module_chip_buildable(self):
        chip = build_module_chip(TESTED_MODULES[0])
        assert chip.geometry.rows_per_bank == 32_768  # 4 Gbit, 16 banks, 1 KiB rows

    def test_8gbit_module_larger(self):
        chip = build_module_chip(TESTED_MODULES[2])  # B0
        assert chip.geometry.rows_per_bank == 65_536

    def test_non_hira_builders(self):
        for vendor in (VendorClass.SAMSUNG_LIKE, VendorClass.MICRON_LIKE):
            chip = build_non_hira_chip(vendor)
            assert chip.design.vendor is vendor
        with pytest.raises(ValueError):
            build_non_hira_chip(VendorClass.HYNIX_LIKE)


class TestSecondAct:
    def test_ratio_near_two_on_hynix(self, chip):
        victims = [chip.geometry.row_of(2, off) for off in (16, 48, 80)]
        results = characterize_normalized_nrh(chip, 0, victims)
        assert results
        for result in results:
            assert 1.0 < result.normalized < 2.9

    def test_ratio_one_on_samsung_like(self, samsung_chip):
        victims = [samsung_chip.geometry.row_of(2, 16)]
        results = characterize_normalized_nrh(samsung_chip, 0, victims)
        for result in results:
            # Second ACT ignored: threshold unchanged (within noise).
            assert result.normalized == pytest.approx(1.0, abs=0.15)

    def test_ratio_one_on_micron_like(self, micron_chip):
        victims = [micron_chip.geometry.row_of(2, 16)]
        results = characterize_normalized_nrh(micron_chip, 0, victims)
        for result in results:
            assert result.normalized == pytest.approx(1.0, abs=0.15)

    def test_pick_dummy_isolated(self, chip):
        victim = chip.geometry.row_of(2, 30)
        dummy = pick_dummy_row(chip, victim)
        assert dummy is not None
        assert chip.isolation.isolated(
            chip.geometry.subarray_of_row(victim),
            chip.geometry.subarray_of_row(dummy),
        )


class TestBankVariation:
    def test_pairs_identical_across_banks(self, chip):
        pairs = [isolated_pair(chip), non_isolated_pair(chip)]
        assert coverage_identical_across_banks(chip, pairs, banks=[0, 3, 7])

    def test_per_bank_thresholds(self, chip):
        victims = [chip.geometry.row_of(2, 24)]
        by_bank = per_bank_normalized_nrh(chip, victims, banks=[0, 1])
        assert set(by_bank) == {0, 1}
        for results in by_bank.values():
            assert results and results[0].normalized > 1.3
