"""Weighted speedup and companion metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import (
    alone_ipc_estimate,
    weighted_speedup,
)


class TestWeightedSpeedup:
    def test_identity_when_shared_equals_alone(self):
        assert weighted_speedup([1.0, 2.0], [1.0, 2.0]) == pytest.approx(2.0)

    def test_sums_per_core_ratios(self):
        assert weighted_speedup([0.5, 0.25], [1.0, 0.5]) == pytest.approx(1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([], [])

    def test_nonpositive_alone_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [0.0])


class TestAloneEstimate:
    def test_memory_intensity_lowers_ipc(self):
        light = alone_ipc_estimate(1.0, 10.0)
        heavy = alone_ipc_estimate(30.0, 10.0)
        assert heavy < light

    def test_bounded_by_peak(self):
        assert alone_ipc_estimate(0.001, 10.0) <= 10.0

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            alone_ipc_estimate(10.0, 0.0)


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_ws_scales_with_shared_ipc(ipcs, factor):
    alone = [10.0] * len(ipcs)
    scaled = weighted_speedup([ipc * factor for ipc in ipcs], alone)
    assert scaled == pytest.approx(factor * weighted_speedup(ipcs, alone))


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
)
def test_ws_monotone_in_each_core(ipcs):
    alone = [10.0] * len(ipcs)
    base = weighted_speedup(ipcs, alone)
    boosted = list(ipcs)
    boosted[0] *= 2
    assert weighted_speedup(boosted, alone) > base
