"""Core model: window blocking, request flow, completion, IPC."""

import pytest

from repro.dram.geometry import Geometry
from repro.sim.addressing import AddressMapper
from repro.sim.core import CoreModel
from repro.sim.trace import TraceGenerator, TraceProfile


def make_core(mpki=20.0, budget=1_000, window=128, mshr=16, ipc=10.66):
    profile = TraceProfile("t", mpki=mpki, row_locality=0.5)
    return CoreModel(
        core_id=0,
        trace=TraceGenerator(profile, AddressMapper(Geometry()), seed=1),
        instr_budget=budget,
        instr_per_mc_cycle=ipc,
        instr_window=window,
        mshr=mshr,
    )


class TestIssueFlow:
    def test_first_request_available(self):
        core = make_core()
        ready = core.ready_cycle(0)
        assert ready is not None

    def test_take_without_pending_raises(self):
        core = make_core()
        core.ready_cycle(0)
        core.take_request(0)
        core._pending = None
        core._instr_issued = core.instr_budget  # force exhaustion
        with pytest.raises(RuntimeError):
            core.take_request(0)

    def test_reads_return_rob_entry_writes_dont(self):
        core = make_core(budget=100_000)
        seen_read = seen_write = False
        now = 0
        while not (seen_read and seen_write):
            ready = core.ready_cycle(now)
            assert ready is not None
            now = max(now, ready)
            is_write = core.peek_pending()[2]
            entry = core.take_request(now)
            if is_write:
                assert entry is None
                seen_write = True
            else:
                assert entry is not None
                seen_read = True
                core.on_read_complete(entry, now + 40)
                now += 40

    def test_mshr_blocks_after_limit(self):
        core = make_core(budget=100_000, mshr=2, window=10_000)
        now = 0
        entries = []
        issued = 0
        while issued < 60:
            ready = core.ready_cycle(now)
            if ready is None:
                break  # blocked with unknown completion
            now = max(now, ready)
            is_write = core.peek_pending()[2]
            entry = core.take_request(now)
            if entry is not None:
                entries.append(entry)
            issued += 1
        outstanding = [e for e in entries if e.complete_cycle is None]
        assert len(outstanding) <= 2

    def test_window_blocks_run_ahead(self):
        core = make_core(budget=100_000, mshr=64, window=32)
        now = 0
        entries = []
        for __ in range(200):
            ready = core.ready_cycle(now)
            if ready is None:
                break
            now = max(now, ready)
            entry = core.take_request(now)
            if entry is not None:
                entries.append(entry)
        open_entries = [e for e in entries if e.complete_cycle is None]
        if open_entries:
            span = core._instr_issued - open_entries[0].instr_index
            assert span <= 32 + 60  # window plus one gap of slack


class TestCompletionAndFinish:
    def test_finishes_after_budget(self):
        core = make_core(budget=500)
        now = 0
        while not core.done:
            ready = core.ready_cycle(now)
            if ready is None:
                if core.done:
                    break
                pending = [e for e in core._outstanding if e.complete_cycle is None]
                assert pending, "blocked with nothing outstanding"
                core.on_read_complete(pending[0], now + 10)
                now += 10
                continue
            now = max(now, ready)
            entry = core.take_request(now)
            if entry is not None:
                core.on_read_complete(entry, now + 30)
        assert core.done
        assert core.finish_cycle is not None and core.finish_cycle > 0
        assert core.instructions_retired == 500

    def test_ipc_positive_and_bounded(self):
        core = make_core(budget=500)
        now = 0
        while not core.done:
            ready = core.ready_cycle(now)
            if ready is None:
                pending = [e for e in core._outstanding if e.complete_cycle is None]
                if not pending:
                    break
                core.on_read_complete(pending[0], now + 10)
                now += 10
                continue
            now = max(now, ready)
            entry = core.take_request(now)
            if entry is not None:
                core.on_read_complete(entry, now + 30)
        ipc = core.ipc()
        assert 0 < ipc <= core.instr_per_cycle

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            make_core(budget=0)
