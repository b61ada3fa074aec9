"""Synthetic trace generation: statistics and determinism."""

import pytest

from repro.dram.geometry import Geometry
from repro.sim.addressing import AddressMapper
from repro.sim.trace import TraceGenerator, TraceProfile

#: 128 lines per row (the default geometry).
MAPPER = AddressMapper(Geometry())


def collect(gen, n=4_000):
    """The (gap, line, is_write) part of the next ``n`` accesses."""
    return [gen.next_access()[:3] for __ in range(n)]


class TestProfileValidation:
    def test_rejects_bad_mpki(self):
        with pytest.raises(ValueError):
            TraceProfile("x", mpki=0.0, row_locality=0.5)

    def test_rejects_bad_locality(self):
        with pytest.raises(ValueError):
            TraceProfile("x", mpki=10.0, row_locality=1.0)

    def test_rejects_bad_read_fraction(self):
        with pytest.raises(ValueError):
            TraceProfile("x", mpki=10.0, row_locality=0.5, read_fraction=1.5)

    def test_mean_gap(self):
        assert TraceProfile("x", mpki=20.0, row_locality=0.5).mean_gap == 50.0


class TestGenerator:
    def test_deterministic_for_seed(self):
        p = TraceProfile("x", mpki=15.0, row_locality=0.6)
        a = collect(TraceGenerator(p, MAPPER, seed=5), 500)
        b = collect(TraceGenerator(p, MAPPER, seed=5), 500)
        assert a == b

    def test_seeds_differ(self):
        p = TraceProfile("x", mpki=15.0, row_locality=0.6)
        a = collect(TraceGenerator(p, MAPPER, seed=5), 500)
        b = collect(TraceGenerator(p, MAPPER, seed=6), 500)
        assert a != b

    def test_mean_gap_matches_mpki(self):
        p = TraceProfile("x", mpki=25.0, row_locality=0.5)
        accesses = collect(TraceGenerator(p, MAPPER, seed=1))
        mean_gap = sum(gap for gap, __, __ in accesses) / len(accesses)
        assert mean_gap == pytest.approx(p.mean_gap, rel=0.1)

    def test_row_locality_measured(self):
        p = TraceProfile("x", mpki=20.0, row_locality=0.8)
        accesses = collect(TraceGenerator(p, MAPPER, seed=2))
        rows = [line // 128 for __, line, __ in accesses]
        same = sum(1 for a, b in zip(rows, rows[1:]) if a == b)
        assert same / len(rows) == pytest.approx(0.8, abs=0.05)

    def test_write_fraction(self):
        p = TraceProfile("x", mpki=20.0, row_locality=0.5, read_fraction=0.7)
        accesses = collect(TraceGenerator(p, MAPPER, seed=3))
        writes = sum(1 for __, __, w in accesses if w)
        assert writes / len(accesses) == pytest.approx(0.3, abs=0.04)

    def test_working_set_respected(self):
        p = TraceProfile("x", mpki=20.0, row_locality=0.0, working_set_rows=32)
        accesses = collect(TraceGenerator(p, MAPPER, seed=4))
        regions = {line // 128 for __, line, __ in accesses}
        assert len(regions) <= 32
