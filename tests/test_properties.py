"""Cross-module property-based tests (hypothesis) on core invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.chip_model import DramChip
from repro.chip.design import make_design
from repro.dram.geometry import Geometry
from repro.sim.addressing import AddressMapper
from repro.softmc.host import SoftMCHost
from repro.softmc.patterns import ALL_PATTERNS
from repro.softmc.program import Program

_DESIGN = make_design(subarrays_per_bank=8, rows_per_subarray=64, design_seed=21)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(st.integers(min_value=0, max_value=511), min_size=1, max_size=5, unique=True),
    pattern_idx=st.integers(min_value=0, max_value=3),
    bank=st.integers(min_value=0, max_value=15),
)
def test_nominal_timing_never_corrupts(rows, pattern_idx, bank):
    """Legal JEDEC sequences preserve every row's data, always.

    This is the safety property HiRA deliberately walks the edge of: the
    chip model must only corrupt data when timing is actually violated.
    """
    chip = DramChip(_DESIGN, chip_seed=77)
    host = SoftMCHost(chip)
    pattern = ALL_PATTERNS[pattern_idx]
    for row in rows:
        host.initialize(bank, row, pattern)
    for row in rows:
        host.activate_refresh(bank, row)
    for row in rows:
        assert host.compare_data(pattern, bank, row) == 0


@settings(max_examples=30, deadline=None)
@given(
    offsets=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20),
    waits=st.lists(st.integers(min_value=1_500, max_value=50_000), min_size=1, max_size=20),
)
def test_program_times_strictly_monotonic(offsets, waits):
    prog = Program()
    for i, (offset, wait) in enumerate(zip(offsets, waits)):
        if i % 2 == 0:
            prog.act(0, offset, wait_ps=wait)
        else:
            prog.pre(0, wait_ps=wait)
    times = [cmd.time_ps for cmd in prog]
    assert times == sorted(times)
    assert prog.cursor_ps >= (times[-1] if times else 0)


@settings(max_examples=30, deadline=None)
@given(
    channels=st.integers(min_value=1, max_value=4),
    ranks=st.integers(min_value=1, max_value=4),
    line=st.integers(min_value=0, max_value=1 << 34),
)
def test_mapper_bijective_across_geometries(channels, ranks, line):
    geom = Geometry(
        channels=channels,
        ranks_per_channel=ranks,
        subarrays_per_bank=16,
        rows_per_subarray=128,
    )
    mapper = AddressMapper(geom)
    total = (
        geom.channels
        * geom.ranks_per_channel
        * geom.banks_per_rank
        * geom.rows_per_bank
        * geom.columns_per_row
    )
    line %= total
    addr = mapper.decode(line)
    addr.validate(geom)
    assert mapper.encode(addr) == line


@settings(max_examples=15, deadline=None)
@given(
    sa_a=st.integers(min_value=0, max_value=7),
    sa_b=st.integers(min_value=0, max_value=7),
    off_a=st.integers(min_value=0, max_value=63),
    off_b=st.integers(min_value=0, max_value=63),
)
def test_hira_outcome_matches_isolation_map(sa_a, sa_b, off_a, off_b):
    """Algorithm 1's verdict equals the design's isolation ground truth.

    For any row pair (different rows), HiRA at the calibrated t1 = t2 =
    3 ns preserves data iff the isolation map declares the subarrays
    electrically isolated.
    """
    chip = DramChip(_DESIGN, chip_seed=78)
    host = SoftMCHost(chip)
    row_a = chip.geometry.row_of(sa_a, off_a)
    row_b = chip.geometry.row_of(sa_b, off_b)
    if row_a == row_b:
        return
    from repro.experiments.coverage import pair_passes

    passed = pair_passes(host, 0, row_a, row_b, t1_ps=3_000, t2_ps=3_000)
    assert passed == chip.isolation.isolated(sa_a, sa_b)


@pytest.mark.parametrize("mode", ["baseline", "elastic", "hira"])
@pytest.mark.parametrize("granularity", ["all_bank", "same_bank"])
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9_999),
    read_fraction=st.floats(min_value=0.3, max_value=0.8),
    mpki=st.floats(min_value=8.0, max_value=40.0),
    locality=st.floats(min_value=0.2, max_value=0.9),
)
def test_turnaround_and_refsb_recomputed_from_audit_log(
    mode, granularity, seed, read_fraction, mpki, locality
):
    """Differential audit: fuzzed mixed read/write traces across every
    engine × refresh granularity.  The controller's issue gates produce
    the log; two derivations that share no code with them check it — the
    declarative rule-table oracle (which ``auditor.violations()`` runs)
    and the tRTW/tWTR/REFsb constraints recomputed inline below.  A bug
    in the gates cannot hide from either, and a bug in the oracle cannot
    hide one in the scheduler.  Bounded examples: 2-core, small budgets.
    """
    from repro.sim.audit import attach_auditors
    from repro.sim.config import SystemConfig
    from repro.sim.oracle import oracle_for_config
    from repro.sim.system import System
    from repro.sim.trace import TraceProfile

    config = SystemConfig(
        refresh_mode=mode, refresh_granularity=granularity, cores=2
    )
    profiles = [
        TraceProfile(
            f"fz{seed}-{i}",
            mpki=mpki,
            row_locality=locality,
            read_fraction=read_fraction,
            working_set_rows=2048,
        )
        for i in range(2)
    ]
    system = System(config, profiles, seed=seed, instr_budget=2_500)
    auditors = attach_auditors(system)
    result = system.run(max_cycles=2_000_000)
    assert result.finished
    far_past = -1 << 60
    oracle = oracle_for_config(config)
    for auditor in auditors:
        mc = auditor.mc
        assert oracle.check_messages(auditor.records) == []
        records = sorted(auditor.records, key=lambda r: r.cycle)
        # Data-bus occupancy + turnaround, recomputed from RD/WR records.
        bursts = sorted(
            (r.cycle + (mc.tcwl_c if r.kind == "WR" else mc.tcl_c), r.kind)
            for r in records
            if r.kind in ("RD", "WR")
        )
        for (start0, kind0), (start1, kind1) in zip(bursts, bursts[1:]):
            gap = 0
            if kind0 != kind1:
                gap = mc.trtw_c if kind0 == "RD" else mc.twtr_c
            assert start1 >= start0 + mc.tbl_c + gap, (
                f"{kind0}@{start0} -> {kind1}@{start1} breaks "
                f"tBL+{'tRTW' if kind0 == 'RD' else 'tWTR'}"
            )
        # REFsb busy windows, target-precharged rule, and rank spacing.
        open_row: dict[tuple, bool] = {}
        last_pre: dict[tuple, int] = {}
        refsb_busy: dict[tuple, int] = {}
        last_refsb_rank: dict[int, int] = {}
        for r in records:
            key = (r.rank, r.bank)
            if r.kind == "ACT":
                assert r.cycle >= refsb_busy.get(key, far_past), (
                    f"ACT@{r.cycle} inside REFsb busy window of {key}"
                )
                open_row[key] = True
            elif r.kind == "PRE":
                open_row[key] = False
                last_pre[key] = r.cycle
            elif r.kind in ("RD", "WR"):
                assert r.cycle >= refsb_busy.get(key, far_past)
            elif r.kind == "REFSB":
                assert granularity == "same_bank"
                assert not open_row.get(key, False), (
                    f"REFSB@{r.cycle} to open bank {key}"
                )
                assert r.cycle - last_pre.get(key, far_past) >= mc.trp_c
                assert r.cycle >= refsb_busy.get(key, far_past)
                previous = last_refsb_rank.get(r.rank)
                if previous is not None:
                    assert r.cycle - previous >= mc.trefsb_gap_c
                last_refsb_rank[r.rank] = r.cycle
                refsb_busy[key] = r.cycle + mc.trfc_sb_c
            elif r.kind == "REF":
                assert granularity == "all_bank"
                for (rank, bank), busy in refsb_busy.items():
                    if rank == r.rank:
                        assert r.cycle >= busy
                for bank_key in open_row:
                    if bank_key[0] == r.rank:
                        open_row[bank_key] = False
                        last_pre[bank_key] = max(
                            last_pre.get(bank_key, far_past), r.cycle
                        )
        if granularity == "same_bank" and result.cycles > mc.trefi_c:
            # The staggered per-bank cadence must actually produce REFsb.
            assert any(r.kind == "REFSB" for r in records)


@settings(max_examples=10, deadline=None)
@given(count=st.integers(min_value=0, max_value=5_000))
def test_disturbance_linear_in_hammer_count(count):
    chip = DramChip(_DESIGN, chip_seed=79)
    victim = chip.geometry.row_of(2, 10)
    aggressors = chip.design.aggressors_for_victim(victim)
    if len(aggressors) != 2:
        return
    chip.bulk_hammer(0, aggressors, count)
    phys = chip.design.logical_to_physical(victim)
    assert chip.disturb.disturbance(0, phys) == 2 * count
