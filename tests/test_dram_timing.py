"""Timing parameters, the tRFC scaling model, and HiRA latency identities."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.dram.timing import (
    DDR4_2400,
    TimingParams,
    hira_latency_reduction,
    hira_two_row_refresh_latency_ps,
    nominal_two_row_refresh_latency_ps,
    ns,
    projected_rows_per_bank,
    timing_for_capacity,
    trfc_for_capacity_ns,
)
from repro.sim.config import SystemConfig


class TestPreset:
    def test_ddr4_2400_paper_values(self):
        assert DDR4_2400.tras == 32_000
        assert DDR4_2400.trp == 14_250
        assert DDR4_2400.trc == 46_250
        assert DDR4_2400.trefi == 7_800_000
        assert DDR4_2400.hira_t1 == 3_000
        assert DDR4_2400.hira_t2 == 3_000

    def test_trc_consistency_enforced(self):
        with pytest.raises(ValueError):
            TimingParams(trc=ns(40.0))  # < tRAS + tRP

    def test_hira_gap_below_trrd_l_rejected(self):
        with pytest.raises(ValueError, match="tRRD_L"):
            TimingParams(trrd_l=ns(6.5))  # > t1 + t2 = 6 ns

    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            TimingParams(trcd=0)

    @pytest.mark.parametrize("name", ["tcl", "tbl", "hira_t1", "hira_t2"])
    def test_data_path_and_hira_fields_must_be_positive(self, name):
        # tbl=0 would silently make every data-bus reservation zero-length
        # (disabling tRTW/tWTR gating); zero CAS latency or HiRA phase
        # times are equally nonsensical.
        with pytest.raises(ValueError, match=name):
            TimingParams(**{name: 0})

    def test_to_cycles_rounds_up(self):
        tp = DDR4_2400
        assert tp.to_cycles(tp.tck) == 1
        assert tp.to_cycles(tp.tck + 1) == 2
        assert tp.to_cycles(tp.trc) == math.ceil(46_250 / 833)

    def test_with_trfc_copies(self):
        tp = DDR4_2400.with_trfc(ns(500.0))
        assert tp.trfc == 500_000
        assert DDR4_2400.trfc == 350_000

    def test_with_trfc_keeps_same_bank_ratio(self):
        tp = DDR4_2400.with_trfc(2 * DDR4_2400.trfc)
        assert tp.trfc_sb / tp.trfc == pytest.approx(
            DDR4_2400.trfc_sb / DDR4_2400.trfc, rel=1e-3
        )
        assert tp.trc == DDR4_2400.trc


class TestLatencyIdentities:
    def test_nominal_two_row_refresh_is_78_25_ns(self):
        assert nominal_two_row_refresh_latency_ps() == ns(78.25)

    def test_hira_two_row_refresh_is_38_ns(self):
        assert hira_two_row_refresh_latency_ps() == ns(38.0)

    def test_latency_reduction_51_4_percent(self):
        assert hira_latency_reduction() == pytest.approx(0.514, abs=0.002)

    def test_access_after_refresh_is_6_ns(self):
        assert DDR4_2400.hira_op_ps == ns(6.0)


class TestTrfcScaling:
    def test_expression_1_examples(self):
        # tRFC = 110 × C^0.6
        assert trfc_for_capacity_ns(1.0) == pytest.approx(110.0)
        assert trfc_for_capacity_ns(8.0) == pytest.approx(110.0 * 8**0.6)
        assert trfc_for_capacity_ns(128.0) == pytest.approx(110.0 * 128**0.6)

    def test_monotonic_in_capacity(self):
        values = [trfc_for_capacity_ns(c) for c in (2, 4, 8, 16, 32, 64, 128)]
        assert values == sorted(values)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trfc_for_capacity_ns(0.0)

    def test_timing_for_capacity_sets_trfc(self):
        tp = timing_for_capacity(32.0)
        assert tp.trfc == round(trfc_for_capacity_ns(32.0) * 1_000)
        assert tp.tras == DDR4_2400.tras


class TestRowScaling:
    def test_table3_anchor_64k_rows_at_8gbit(self):
        assert projected_rows_per_bank(8.0) == 65_536

    def test_projection_is_sqrt(self):
        assert projected_rows_per_bank(32.0) == 131_072
        assert projected_rows_per_bank(128.0) == 262_144
        assert projected_rows_per_bank(2.0) == 32_768

    def test_projection_rounds_to_subarrays(self):
        assert projected_rows_per_bank(3.0) % 512 == 0

    def test_refresh_rows_per_ref_is_8_at_64k(self):
        # 64K rows, 8K REFs per 64 ms window -> 8 rows per REF per bank.
        config = SystemConfig(capacity_gbit=8.0)
        per_row_ps = config.per_bank_refresh_interval_cycles * config.tck_ps
        assert config.timing.trefi / per_row_ps == pytest.approx(8.0, rel=0.01)


@given(st.floats(min_value=0.5, max_value=512.0))
def test_trfc_scaling_power_law(capacity):
    doubled = trfc_for_capacity_ns(capacity * 2)
    single = trfc_for_capacity_ns(capacity)
    assert doubled / single == pytest.approx(2**0.6, rel=1e-9)


@given(st.floats(min_value=0.5, max_value=512.0))
def test_projected_rows_monotone(capacity):
    assert projected_rows_per_bank(capacity * 2) >= projected_rows_per_bank(capacity)
