"""RowHammer disturbance accumulation and restore semantics."""

import pytest

from repro.chip.disturb import DisturbState
from repro.chip.variation import DesignVariation, VariationModel


@pytest.fixture()
def state():
    return DisturbState(VariationModel(DesignVariation(), chip_seed=9))


def timing_of(state, bank=0, row=10):
    return state.variation.row_timing(bank, row)


class TestAccumulation:
    def test_hammer_adds_counts(self, state):
        state.hammer(0, [10, 12], count=100)
        assert state.disturbance(0, 10) == 100
        assert state.disturbance(0, 12) == 100
        assert state.disturbance(0, 11) == 0

    def test_peak_tracks_maximum(self, state):
        state.hammer(0, [10], count=50)
        state.on_restore(0, 10, timing_of(state), fraction=1.0)
        assert state.rows[(0, 10)].peak <= 50
        state.hammer(0, [10], count=10)
        assert state.rows[(0, 10)].peak >= state.disturbance(0, 10)

    def test_write_resets_everything(self, state):
        state.hammer(0, [10], count=99_999)
        state.on_write(0, 10)
        assert state.disturbance(0, 10) == 0
        assert state.rows[(0, 10)].peak == 0


class TestFlips:
    def test_no_flips_below_threshold(self, state):
        t = timing_of(state)
        state.hammer(0, 10 * [10], count=1)  # tiny
        assert state.flips_on_sense(0, 10, t) == 0

    def test_flips_at_large_peak(self, state):
        t = timing_of(state)
        state.hammer(0, [10], count=int(t.nrh * 2))
        assert state.flips_on_sense(0, 10, t) >= 1

    def test_more_excess_more_flips(self, state):
        t = timing_of(state)
        state.hammer(0, [10], count=int(t.nrh * 1.2))
        few = state.flips_on_sense(0, 10, t)
        state.hammer(0, [10], count=int(t.nrh * 4))
        many = state.flips_on_sense(0, 10, t)
        assert many >= few

    def test_untouched_row_never_flips(self, state):
        assert state.flips_on_sense(0, 777, timing_of(state, row=777)) == 0

    def test_written_row_flips_without_drawing_noise(self, state, monkeypatch):
        state.hammer(0, [10], count=99_999)
        state.on_write(0, 10)

        def no_draw(*args):
            raise AssertionError("drew run noise for a row with no positive peak")

        monkeypatch.setattr(state.variation, "run_noise", no_draw)
        assert state.flips_on_sense(0, 10, timing_of(state)) == 0


class TestRestore:
    def test_full_restore_reduces_disturbance(self, state):
        t = timing_of(state)
        state.hammer(0, [10], count=10_000)
        state.on_restore(0, 10, t, fraction=1.0)
        assert state.disturbance(0, 10) < 10_000

    def test_restore_of_clean_row_keeps_reference_state(self, state):
        t = timing_of(state)
        state.on_restore(0, 10, t, fraction=1.0)
        # Boost margin scales with erased disturbance: nothing to erase.
        assert state.disturbance(0, 10) == pytest.approx(0.0, abs=1e-9)

    def test_partial_restore_weaker_than_full(self, state):
        t = timing_of(state)
        state.hammer(0, [10], count=10_000)
        state.on_restore(0, 10, t, fraction=0.5)
        partial = state.disturbance(0, 10)
        state.on_write(0, 10)
        state.hammer(0, [10], count=10_000)
        state.on_restore(0, 10, t, fraction=1.0)
        full = state.disturbance(0, 10)
        assert full <= partial

    def test_restore_missing_row_is_noop(self, state):
        state.on_restore(0, 555, timing_of(state, row=555), fraction=1.0)
        assert state.disturbance(0, 555) == 0

    def test_restore_clamped_above_margin_floor(self, state):
        t = timing_of(state)
        for __ in range(20):
            state.on_restore(0, 10, t, fraction=1.0)
        assert state.disturbance(0, 10) >= -0.6 * t.nrh - 1e-9
