"""Reverse engineering the internal row mapping (§4.3 footnote 8)."""

import pytest

from repro.rowhammer.mapping import find_aggressors


class TestScrambling:
    def test_xor_mapping_is_involution(self, chip):
        design = chip.design
        for row in (0, 5, 130, 1_000):
            assert design.physical_to_logical(design.logical_to_physical(row)) == row

    def test_neighbors_stay_in_subarray(self, chip):
        design = chip.design
        for row in range(0, chip.geometry.rows_per_bank, 97):
            sa = chip.geometry.subarray_of_row(row)
            for neighbor in design.aggressors_for_victim(row):
                assert chip.geometry.subarray_of_row(neighbor) == sa

    def test_scrambled_rows_not_logically_adjacent(self, chip):
        # With a non-trivial XOR mask at least some victims have
        # non-±1 logical aggressors.
        nontrivial = False
        for row in range(10, 100):
            aggressors = chip.design.aggressors_for_victim(row)
            if aggressors and any(abs(a - row) != 1 for a in aggressors):
                nontrivial = True
        assert nontrivial


class TestReverseEngineering:
    def test_find_aggressors_matches_ground_truth(self, chip, host):
        victim = chip.geometry.row_of(1, 20)
        expected = sorted(chip.design.aggressors_for_victim(victim))
        found = sorted(find_aggressors(host, 0, victim, search_radius=8))
        assert found == expected

    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_find_aggressors_at_subarray_edge(self, chip, host, edge):
        # The search window is clipped to the victim's subarray.
        geom = chip.geometry
        offset = 0 if edge == "first" else geom.rows_per_subarray - 1
        victim = geom.row_of(1, offset)
        found = find_aggressors(host, 0, victim, search_radius=8)
        assert sorted(found) == sorted(chip.design.aggressors_for_victim(victim))
        assert all(geom.subarray_of_row(row) == 1 for row in found)
