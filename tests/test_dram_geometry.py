"""DRAM geometry, addresses, and capacity-derived geometries."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.errors import GeometryError
from repro.dram.geometry import Address, Geometry, geometry_for_capacity


class TestGeometry:
    def test_table3_defaults(self):
        geom = Geometry()
        assert geom.banks_per_rank == 16
        assert geom.rows_per_bank == 65_536
        assert geom.row_bits == 8_192  # 1 KiB chip rows

    def test_default_chip_is_8_gbit(self):
        geom = Geometry()
        assert geom.banks_per_rank * geom.rows_per_bank * geom.row_bits == 8 * (1 << 30)

    def test_banks_per_rank_spans_bank_groups(self):
        geom = Geometry(bankgroups_per_rank=2, banks_per_bankgroup=8)
        assert geom.banks_per_rank == 16
        geom.check_bank(15)
        with pytest.raises(GeometryError):
            geom.check_bank(16)

    def test_subarray_row_roundtrip(self):
        geom = Geometry()
        for row in (0, 511, 512, 65_535):
            sa = geom.subarray_of_row(row)
            offset = geom.row_within_subarray(row)
            assert geom.row_of(sa, offset) == row

    def test_row_bounds_checked(self):
        geom = Geometry()
        with pytest.raises(GeometryError):
            geom.subarray_of_row(geom.rows_per_bank)
        with pytest.raises(GeometryError):
            geom.row_of(geom.subarrays_per_bank, 0)
        with pytest.raises(GeometryError):
            geom.row_of(0, geom.rows_per_subarray)
        with pytest.raises(GeometryError):
            geom.row_within_subarray(-1)

    def test_invalid_config_rejected(self):
        with pytest.raises(GeometryError):
            Geometry(channels=0)


class TestAddress:
    def test_validate_accepts_in_range(self):
        geom = Geometry()
        Address(bank=15, row=65_535, col=127).validate(geom)

    def test_validate_rejects_out_of_range(self):
        geom = Geometry()
        with pytest.raises(GeometryError):
            Address(bank=16).validate(geom)
        with pytest.raises(GeometryError):
            Address(col=128).validate(geom)


class TestGeometryForCapacity:
    def test_eight_gbit_matches_table3(self):
        geom = geometry_for_capacity(8.0)
        assert geom.rows_per_bank == 65_536
        assert geom.banks_per_rank == 16

    def test_sqrt_scaling(self):
        assert geometry_for_capacity(32.0).rows_per_bank == 131_072
        assert geometry_for_capacity(2.0).rows_per_bank == 32_768

    def test_channel_rank_overrides(self):
        geom = geometry_for_capacity(8.0, channels=4, ranks_per_channel=2)
        assert geom.channels == 4
        assert geom.ranks_per_channel == 2


@given(
    st.integers(min_value=0, max_value=65_535),
)
def test_subarray_decomposition_total(row):
    geom = Geometry()
    sa = geom.subarray_of_row(row)
    offset = geom.row_within_subarray(row)
    assert 0 <= sa < geom.subarrays_per_bank
    assert 0 <= offset < geom.rows_per_subarray
    assert sa * geom.rows_per_subarray + offset == row
