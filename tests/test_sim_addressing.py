"""MOP address mapping: bijectivity, interleaving structure, and the
batch decode's equality with the scalar one."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.geometry import Geometry
from repro.sim.addressing import AddressMapper
from repro.sim.config import SystemConfig
from repro.workloads.spec import SPEC_PROFILES


@pytest.fixture(scope="module")
def mapper():
    return AddressMapper(Geometry(channels=2, ranks_per_channel=2))


class TestDecode:
    def test_consecutive_lines_share_row_within_mop_block(self, mapper):
        a = mapper.decode(0)
        b = mapper.decode(1)
        assert (a.channel, a.rank, a.bank, a.row) == (b.channel, b.rank, b.bank, b.row)

    def test_next_mop_block_changes_channel(self, mapper):
        a = mapper.decode(0)
        b = mapper.decode(mapper.mop_lines)
        assert b.channel != a.channel

    def test_rejects_negative(self, mapper):
        with pytest.raises(ValueError):
            mapper.decode(-1)

    def test_mop_must_divide_columns(self):
        with pytest.raises(ValueError):
            AddressMapper(Geometry(), mop_lines=3)

    def test_fields_in_range(self, mapper):
        geom = mapper.geometry
        for line in range(0, 100_000, 997):
            addr = mapper.decode(line)
            addr.validate(geom)


class TestInterleaving:
    def test_streaming_spreads_over_banks(self, mapper):
        geom = mapper.geometry
        banks = {
            (mapper.decode(line).channel, mapper.decode(line).rank, mapper.decode(line).bank)
            for line in range(0, 4 * geom.channels * geom.ranks_per_channel * geom.banks_per_rank * 4, 4)
        }
        assert len(banks) == geom.channels * geom.ranks_per_channel * geom.banks_per_rank

    def test_row_changes_only_after_full_sweep(self, mapper):
        first_row = mapper.decode(0).row
        geom = mapper.geometry
        lines_per_row_sweep = (
            mapper.mop_lines
            * geom.channels
            * geom.ranks_per_channel
            * geom.banks_per_rank
            * (geom.columns_per_row // mapper.mop_lines)
        )
        assert mapper.decode(lines_per_row_sweep - 1).row == first_row
        assert mapper.decode(lines_per_row_sweep).row != first_row or geom.rows_per_bank == 1


@given(st.integers(min_value=0, max_value=1 << 40))
def test_encode_decode_roundtrip(line):
    mapper = AddressMapper(Geometry(channels=2, ranks_per_channel=2))
    geom = mapper.geometry
    total_lines = (
        geom.channels
        * geom.ranks_per_channel
        * geom.banks_per_rank
        * geom.rows_per_bank
        * geom.columns_per_row
    )
    line %= total_lines
    assert mapper.encode(mapper.decode(line)) == line


#: Past the largest line a trace can emit: a region base reaches
#: ``(1 << 20) * working_set_rows`` rows of ``lines_per_row`` lines.
MAX_TRACE_LINE = (
    (1 << 20)
    * max(p.working_set_rows for p in SPEC_PROFILES)
    * Geometry().columns_per_row
)


@settings(max_examples=60, deadline=None)
@given(
    channels=st.sampled_from((1, 2, 4)),
    ranks=st.sampled_from((1, 2)),
    capacity=st.sampled_from((8.0, 128.0)),
    lines=st.lists(
        st.integers(min_value=0, max_value=MAX_TRACE_LINE), min_size=1, max_size=64
    ),
)
def test_batch_decode_equals_scalar_decode(channels, ranks, capacity, lines):
    """The vectorised decode the trace refill runs equals the scalar
    reference element by element, on the simulator's own geometries."""
    geom = SystemConfig(
        channels=channels, ranks_per_channel=ranks, capacity_gbit=capacity
    ).geometry
    mapper = AddressMapper(geom)
    columns = mapper.decode_batch(np.array(lines, dtype=np.int64))
    for i, line in enumerate(lines):
        addr = mapper.decode(line)
        decoded = tuple(int(column[i]) for column in columns)
        assert decoded == (addr.channel, addr.rank, addr.bank, addr.row)


def test_batch_decode_rejects_negative():
    mapper = AddressMapper(Geometry())
    with pytest.raises(ValueError):
        mapper.decode_batch(np.array([0, -1], dtype=np.int64))
