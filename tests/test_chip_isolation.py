"""Subarray isolation map: structure, symmetry, calibration."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.isolation import IsolationMap
from repro.experiments.modules import TESTED_MODULES

# Exact maps recorded from the pair-by-pair calibration that the one-pass
# histogram replaced.  Never regenerate: a map that differs from these is a
# behaviour change, not a refresh of the golden.
GOLDEN_PATH = Path(__file__).parent / "goldens" / "isolation_maps.json"


def golden_maps():
    """``name -> IsolationMap`` for every map the golden pins."""
    maps = {
        f"iso/{subarrays}/{seed:#x}/{target}": IsolationMap(subarrays, seed, target)
        for subarrays in (32, 128, 512, 1024)
        for seed in (0x5B7, 1, 2)
        for target in (0.1, 0.25, 0.32, 0.38, 0.6)
    }
    for module in TESTED_MODULES:
        maps[f"module/{module.label}"] = module.build_design().build_isolation_map()
    return maps


def map_record(iso):
    """The exact, JSON-stable identity of one calibrated map."""
    return {
        "allowed": sorted(int(d) for d in iso._allowed_diffs),
        "average_coverage": repr(iso.average_coverage()),
        "rail_of_sha256": hashlib.sha256(json.dumps(iso.rail_of).encode()).hexdigest(),
    }


def brute_force_coverage(iso, allowed, sample):
    """Reference coverage: visit every ordered pair of the sample."""
    total = good = 0
    for i in sample:
        for j in sample:
            if i == j:
                continue
            total += 1
            if abs(i - j) > 1 and (iso.rail_of[i] - iso.rail_of[j]) % iso.rails in allowed:
                good += 1
    return good / total if total else 0.0


@pytest.fixture(scope="module")
def iso():
    return IsolationMap(subarrays=64, design_seed=11, target_coverage=0.32)


class TestStructure:
    def test_irreflexive(self, iso):
        assert all(not iso.isolated(sa, sa) for sa in range(64))

    def test_symmetric(self, iso):
        for a in range(64):
            for b in range(64):
                assert iso.isolated(a, b) == iso.isolated(b, a)

    def test_open_bitline_neighbours_never_isolated(self, iso):
        for sa in range(63):
            assert not iso.isolated(sa, sa + 1)

    def test_deterministic_rebuild(self):
        a = IsolationMap(subarrays=64, design_seed=11, target_coverage=0.32)
        b = IsolationMap(subarrays=64, design_seed=11, target_coverage=0.32)
        for sa in range(64):
            assert a.partners(sa) == b.partners(sa)

    def test_different_seeds_differ(self):
        a = IsolationMap(subarrays=64, design_seed=1, target_coverage=0.32)
        b = IsolationMap(subarrays=64, design_seed=2, target_coverage=0.32)
        assert any(a.partners(sa) != b.partners(sa) for sa in range(64))


class TestCalibration:
    @pytest.mark.parametrize("target", [0.25, 0.32, 0.38])
    def test_average_coverage_near_target(self, target):
        iso = IsolationMap(subarrays=64, design_seed=5, target_coverage=target)
        assert iso.average_coverage() == pytest.approx(target, abs=0.06)

    def test_rejects_invalid_target(self):
        with pytest.raises(ValueError):
            IsolationMap(subarrays=64, design_seed=1, target_coverage=0.0)

    def test_rejects_tiny_banks(self):
        with pytest.raises(ValueError):
            IsolationMap(subarrays=2, design_seed=1, target_coverage=0.3)

    def test_large_bank_subsampled_calibration(self):
        # 1024 subarrays triggers the capped calibration sample.
        iso = IsolationMap(subarrays=1024, design_seed=3, target_coverage=0.32)
        assert iso.average_coverage() == pytest.approx(0.32, abs=0.08)


class TestQueries:
    def test_partners_listed_are_isolated(self, iso):
        for sa in (0, 17, 63):
            for partner in iso.partners(sa):
                assert iso.isolated(sa, partner)

    def test_average_coverage_is_mean_partner_fraction(self, iso):
        # Below 256 subarrays calibration visits every pair, so coverage is
        # exactly the mean fraction of other subarrays each one pairs with.
        fractions = [len(iso.partners(sa)) / 63 for sa in range(64)]
        assert iso.average_coverage() == pytest.approx(sum(fractions) / 64)


class TestGolden:
    def test_maps_match_golden_exactly(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        maps = golden_maps()
        assert sorted(maps) == sorted(golden)
        for name, iso in maps.items():
            assert all(type(d) is int for d in iso._allowed_diffs), name
            assert map_record(iso) == golden[name], name


def test_hira_system_scans_each_map_once(monkeypatch):
    from repro.sim.config import SystemConfig
    from repro.sim.system import System
    from repro.sim.trace import TraceProfile

    scans = []
    scan = IsolationMap._pair_histogram

    def counted(self):
        scans.append(self.subarrays)
        return scan(self)

    monkeypatch.setattr(IsolationMap, "_pair_histogram", counted)
    config = SystemConfig(refresh_mode="hira", channels=4)
    profiles = [TraceProfile(f"t{i}", mpki=10.0, row_locality=0.5) for i in range(config.cores)]
    System(config, profiles, seed=1, instr_budget=1_000)
    assert len(scans) == 4


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    target=st.floats(min_value=0.15, max_value=0.5),
    sample=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=40),
    allowed=st.sets(st.integers(min_value=0, max_value=15)),
)
def test_map_always_symmetric_and_irreflexive(seed, target, sample, allowed):
    iso = IsolationMap(subarrays=32, design_seed=seed, target_coverage=target)
    for a in range(32):
        assert not iso.isolated(a, a)
        for b in range(a + 1, 32):
            assert iso.isolated(a, b) == iso.isolated(b, a)
    # The one-pass histogram counts exactly the pairs a full scan visits,
    # duplicates and open-bitline neighbours included.
    assert iso._coverage_given(allowed) == brute_force_coverage(iso, allowed, iso._sample)
    sampled = IsolationMap(32, seed, target, calibration_sample=sample)
    assert sampled._coverage_given(allowed) == brute_force_coverage(
        sampled, allowed, sorted(sample)
    )
    assert sampled.average_coverage() == brute_force_coverage(
        sampled, sampled._allowed_diffs, sorted(sample)
    )
