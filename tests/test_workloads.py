"""Workload profiles and multiprogrammed mixes."""

from repro.workloads.mixes import INTENSIVE_MPKI, mix_for
from repro.workloads.spec import SPEC_PROFILES


class TestProfiles:
    def test_all_profiles_valid(self):
        for profile in SPEC_PROFILES:
            assert profile.mpki > 0
            assert 0 <= profile.row_locality < 1
            assert profile.name.endswith("-like")

    def test_intensity_spectrum(self):
        mpkis = [p.mpki for p in SPEC_PROFILES]
        assert max(mpkis) > 25  # mcf-class
        assert min(mpkis) < 1  # compute-bound class


    def test_names_unique(self):
        names = [p.name for p in SPEC_PROFILES]
        assert len(set(names)) == len(names)


class TestMixes:
    def test_evaluation_mixes_have_8_cores(self):
        # §7: 125 eight-core mixes.
        assert all(len(mix_for(i)) == 8 for i in range(125))

    def test_core_count_respected(self):
        assert len(mix_for(0, cores=4)) == 4

    def test_seed_selects_a_different_mix_family(self):
        a = [tuple(p.name for p in mix_for(i)) for i in range(5)]
        b = [tuple(p.name for p in mix_for(i, seed=7)) for i in range(5)]
        assert a != b

    def test_deterministic(self):
        assert [p.name for p in mix_for(7)] == [p.name for p in mix_for(7)]

    def test_mixes_differ(self):
        names = {tuple(p.name for p in mix_for(i)) for i in range(20)}
        assert len(names) > 15

    def test_intensive_pool_filtered(self):
        for mix in (mix_for(i, intensive=True) for i in range(10)):
            assert all(p.mpki >= INTENSIVE_MPKI for p in mix)

    def test_full_pool_includes_light(self):
        mixes = [mix_for(i, intensive=False) for i in range(40)]
        assert any(p.mpki < INTENSIVE_MPKI for mix in mixes for p in mix)
