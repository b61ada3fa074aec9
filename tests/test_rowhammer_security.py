"""The revisited PARA security analysis (Expressions 2–9, §9.1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.rowhammer.security import (
    DEFAULT_TARGET,
    k_factor,
    legacy_pth,
    log_rowhammer_success_probability,
    max_failed_attempts,
    n_ref_slack_for,
    rowhammer_success_probability,
    solve_pth,
)


class TestLegacy:
    def test_legacy_pth_at_nrh_64_is_0_8341(self):
        # §9.1.3 quotes 0.8341 for NRH = 64.
        assert legacy_pth(64) == pytest.approx(0.8341, abs=1e-3)

    def test_legacy_pth_at_nrh_128_is_0_4730(self):
        assert legacy_pth(128) == pytest.approx(0.4730, abs=1e-3)

    def test_legacy_probability_identity(self):
        # PARA-Legacy: an attack succeeds if none of NRH activations
        # refreshes the victim, (1 - pth/2)^NRH, which pth sets to target.
        pth = legacy_pth(256)
        assert (1.0 - pth / 2.0) ** 256 == pytest.approx(DEFAULT_TARGET, rel=1e-6)


class TestKFactor:
    """Expression 9's published k values."""

    def test_k_at_nrh_1024(self):
        assert k_factor(legacy_pth(1024), 1024) == pytest.approx(1.0331, abs=2e-3)

    def test_k_at_nrh_64(self):
        assert k_factor(legacy_pth(64), 64) == pytest.approx(1.3212, abs=2e-3)

    def test_k_grows_as_vulnerability_worsens(self):
        ks = [k_factor(legacy_pth(n), n) for n in (1024, 512, 256, 128, 64)]
        assert ks == sorted(ks)

    def test_old_chips_negligible_k(self):
        # §9.1.3: NRH = 50K, pth = 0.001 → k ≈ 1.0005.
        assert k_factor(0.001, 50_000) == pytest.approx(1.0005, abs=2e-4)


class TestSolver:
    def test_pth_examples_from_fig_11a(self):
        # "pth increases from 0.068 to 0.860 when NRH reduces 1024 → 64".
        assert solve_pth(1024) == pytest.approx(0.068, abs=0.004)
        assert solve_pth(64) == pytest.approx(0.86, abs=0.03)

    def test_pth_grows_with_slack(self):
        for nrh in (64, 128, 512):
            values = [
                solve_pth(nrh, n_ref_slack_for(s * 46.25)) for s in (0, 2, 4, 8)
            ]
            assert values == sorted(values)
            assert values[0] < values[-1]

    def test_nrh_128_slack_range_matches_paper(self):
        # §9.1.3: pth ≈ 0.48 / 0.49 / 0.50 / 0.52 for slack 0/2/4/8 · tRC.
        values = [solve_pth(128, n_ref_slack_for(s * 46.25)) for s in (0, 2, 4, 8)]
        assert values[0] == pytest.approx(0.48, abs=0.02)
        assert values[-1] == pytest.approx(0.52, abs=0.03)

    def test_solution_meets_target(self):
        for nrh in (64, 100, 256, 1024, 4096):
            pth = solve_pth(nrh)
            assert rowhammer_success_probability(pth, nrh) <= DEFAULT_TARGET * 1.001

    def test_solver_raises_when_unreachable(self):
        with pytest.raises(ValueError):
            solve_pth(2, target=1e-30)


class TestExpressionStructure:
    def test_nf_max_formula(self):
        # Expression 7 with defaults: (tREFW/tRC − NRH − NRefSlack)/2.
        expected = int((64e6 / 46.25 - 1024) / 2)
        assert max_failed_attempts(1024) == expected

    def test_nf_max_with_slack_smaller(self):
        assert max_failed_attempts(1024, n_ref_slack_for(8 * 46.25)) < max_failed_attempts(1024)

    def test_probability_decreasing_in_pth(self):
        probs = [rowhammer_success_probability(p, 128) for p in (0.1, 0.3, 0.5, 0.9)]
        assert probs == sorted(probs, reverse=True)

    def test_slack_increases_success_probability(self):
        base = log_rowhammer_success_probability(0.5, 128, 0)
        slack = log_rowhammer_success_probability(0.5, 128, 8)
        assert slack > base

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rowhammer_success_probability(0.0, 128)
        with pytest.raises(ValueError):
            rowhammer_success_probability(0.5, -1)
        with pytest.raises(ValueError):
            n_ref_slack_for(-1.0)


@settings(max_examples=40)
@given(
    # Below NRH ≈ 51 even pth = 1 cannot reach 1e-15 (each side refreshed
    # with at most pth/2 = 0.5 per activation); the paper sweeps NRH ≥ 64.
    nrh=st.integers(min_value=64, max_value=100_000),
    slack_acts=st.integers(min_value=0, max_value=8),
)
def test_solver_always_meets_target(nrh, slack_acts):
    pth = solve_pth(nrh, float(slack_acts))
    log_p = log_rowhammer_success_probability(pth, nrh, float(slack_acts))
    assert log_p <= math.log(DEFAULT_TARGET) + 1e-6


@settings(max_examples=40)
@given(
    pth=st.floats(min_value=1e-4, max_value=0.999),
    nrh=st.integers(min_value=32, max_value=10_000),
)
def test_revisited_probability_at_least_legacy(pth, nrh):
    """k ≥ 1: the legacy model always underestimates the attack (Exp. 9)."""
    assert k_factor(pth, nrh) >= 1.0 - 1e-9
