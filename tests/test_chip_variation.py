"""Per-row variation: determinism, calibrated windows, distributions."""

import pytest

from repro.chip.variation import DesignVariation, VariationModel


@pytest.fixture(scope="module")
def model():
    return VariationModel(DesignVariation(), chip_seed=42)


class TestDeterminism:
    def test_same_row_same_sample(self, model):
        a = model.row_timing(0, 100)
        b = VariationModel(DesignVariation(), chip_seed=42).row_timing(0, 100)
        assert a == b

    def test_caching_returns_same_object(self, model):
        assert model.row_timing(1, 5) is model.row_timing(1, 5)

    def test_rows_differ(self, model):
        timings = {model.row_timing(0, r).sa_enable_ps for r in range(50)}
        assert len(timings) > 10

    def test_chip_seeds_differ(self):
        a = VariationModel(DesignVariation(), chip_seed=1).row_timing(0, 0)
        b = VariationModel(DesignVariation(), chip_seed=2).row_timing(0, 0)
        assert a != b


class TestCalibratedWindows:
    """The Fig. 4 feasibility structure (§4.2)."""

    def test_all_rows_work_at_t1_3ns_and_4_5ns(self, model):
        for row in range(300):
            t = model.row_timing(0, row)
            assert t.t1_window_ok(3_000, checkerboard=True)
            assert t.t1_window_ok(4_500, checkerboard=True)

    def test_some_rows_fail_at_t1_1_5ns(self, model):
        results = [model.row_timing(0, r).t1_window_ok(1_500, False) for r in range(300)]
        assert any(results) and not all(results)

    def test_some_rows_fail_at_t1_6ns(self, model):
        results = [model.row_timing(0, r).t1_window_ok(6_000, False) for r in range(300)]
        assert any(results) and not all(results)

    def test_tested_t2_always_interrupts(self, model):
        # All tested t2 values (≤ 6 ns) are below every wordline window.
        for row in range(300):
            t = model.row_timing(0, row)
            for t2 in (1_500, 3_000, 4_500, 6_000):
                assert t2 <= t.wordline_window_ps

    def test_tested_t2_always_isolates_io(self, model):
        for row in range(300):
            t = model.row_timing(0, row)
            assert t.t2_isolates_io(1_500)

    def test_checkerboard_needs_more_margin(self, model):
        p = DesignVariation()
        for row in range(300):
            t = model.row_timing(0, row)
            boundary = t.sa_enable_ps + t.checkerboard_margin_ps - 1
            assert not t.t1_window_ok(boundary, checkerboard=True)
            if boundary >= t.sa_enable_ps:
                assert t.t1_window_ok(boundary, checkerboard=False) or boundary < t.sa_enable_ps


class TestDistributions:
    def test_nrh_within_clips(self, model):
        p = DesignVariation()
        for row in range(200):
            nrh = model.row_timing(0, row).nrh
            assert p.nrh_lo <= nrh <= p.nrh_hi

    def test_intrinsic_nrh_mean_near_54k(self, model):
        # Measured (double-sided) threshold is about half of this: ~27.2K.
        values = [model.row_timing(0, r).nrh for r in range(500)]
        mean = sum(values) / len(values)
        assert 45_000 < mean < 65_000

    def test_restore_needed_within_tras(self, model):
        for row in range(200):
            t = model.row_timing(0, row)
            assert t.restore_needed_ps(32_000) <= 32_000
            assert t.restore_needed_ps(32_000) >= 0.8 * 32_000

    def test_run_noise_centered_on_one(self, model):
        values = [model.run_noise(0, 7, run) for run in range(400)]
        mean = sum(values) / len(values)
        assert mean == pytest.approx(1.0, abs=0.05)
