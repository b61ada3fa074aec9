"""Regression tests for the bugs the first ``repro lint`` run surfaced.

The dirty-flag rule found four places where a refresh engine mutated
deadline-bearing scheduling state without invalidating the memoized
``next_event`` (the rank-drain block in the baseline and elastic engines,
HiRA's ``_refresh_active`` chokepoint, and the elastic same-bank
heap->deferred promotion); the protocol-dispatch rule found that the
worker entered its job loop on *any* non-reject registration reply.  Each
test here pins the fixed behavior so the lint rules are backed by
runtime evidence, not just static cleanliness.
"""

import socket

import pytest

from repro.core.engine import HiraRefreshEngine
from repro.orchestrator.backends.protocol import recv_msg, send_msg
from repro.orchestrator.backends.worker import WorkerRejected, run_session
from repro.sim.config import SystemConfig
from repro.sim.controller import BaselineRefreshEngine, MemoryController
from repro.sim.elastic import ElasticRefreshEngine


def make_mc(engine, **overrides):
    config = SystemConfig(**overrides)
    mc = MemoryController(0, config, engine)
    engine.para = None
    return mc


class TestDirtyFlagFixes:
    def test_baseline_rank_drain_block_marks_dirty(self):
        """Entering the REF drain (blocking a rank) must wake next_event."""
        mc = make_mc(BaselineRefreshEngine(), refresh_mode="baseline")
        mc.issue_act(0, 0, 5, 0)  # open a bank: PRE is tRAS-gated, so
        mc._ta.ref_due[0] = 1     # urgent() can only block, not issue
        mc.mark_dirty()
        mc._dirty = False
        issued = mc.engine.urgent(2)
        assert not issued  # nothing issuable yet (tRAS still elapsing)
        assert 0 in mc.blocked_ranks
        assert mc._dirty, "blocking a rank must invalidate the memo"

    def test_baseline_block_does_not_remark_when_already_blocked(self):
        mc = make_mc(BaselineRefreshEngine(), refresh_mode="baseline")
        mc.issue_act(0, 0, 5, 0)
        mc._ta.ref_due[0] = 1
        mc.mark_dirty()
        mc.engine.urgent(2)
        mc._dirty = False
        mc.engine.urgent(3)  # rank already blocked: no state change
        assert not mc._dirty

    def test_elastic_committed_rank_block_marks_dirty(self):
        mc = make_mc(ElasticRefreshEngine(), refresh_mode="elastic")
        mc.issue_act(0, 0, 5, 0)
        mc._ta.ref_due[0] = 1
        mc.mark_dirty()
        mc.engine._committed[0] = True  # already committed: only the
        mc._dirty = False               # blocked-rank add can mark
        issued = mc.engine.urgent(2)
        assert not issued
        assert 0 in mc.blocked_ranks
        assert mc._dirty

    def test_hira_refresh_active_marks_dirty(self):
        mc = make_mc(
            HiraRefreshEngine(), refresh_mode="hira", capacity_gbit=8.0
        )
        mc._dirty = False
        mc.engine._refresh_active(0, 0)
        assert mc._dirty, (
            "recomputing a bank's deadline-set membership feeds next_event "
            "and must invalidate the memo"
        )

    def test_elastic_sb_promote_move_marks_dirty(self):
        mc = make_mc(
            ElasticRefreshEngine(),
            refresh_mode="elastic",
            refresh_granularity="same_bank",
        )
        engine = mc.engine
        assert engine._sb_heap, "same-bank attach seeds the due heap"
        now = engine._sb_heap[0][0] + 1  # first entry is due
        mc._dirty = False
        engine._sb_promote(now)
        assert not engine._sb_heap or engine._sb_heap[0][0] > now
        assert mc._dirty, "heap->deferred moves must invalidate the memo"

    def test_elastic_sb_promote_noop_stays_clean(self):
        mc = make_mc(
            ElasticRefreshEngine(),
            refresh_mode="elastic",
            refresh_granularity="same_bank",
        )
        engine = mc.engine
        mc._dirty = False
        engine._sb_promote(0)  # nothing due at cycle 0
        assert not mc._dirty


class TestWorkerRegistrationReply:
    """run_session must not enter the job loop without a real welcome."""

    def _session(self, reply: dict):
        ours, theirs = socket.socketpair()
        try:
            send_msg(theirs, reply)
            result = run_session(ours, heartbeat_interval=60.0)
            hello = recv_msg(theirs)
            assert hello is not None and hello["type"] == "hello"
            return result
        finally:
            ours.close()
            theirs.close()

    def test_shutdown_as_first_reply_is_phantom_session(self):
        # A worker racing a closing server receives the broadcast shutdown
        # as its registration reply; that must read as "no session" (the
        # daemon reconnects), not as a rejection that kills it.
        assert self._session({"type": "shutdown"}) is None

    def test_garbage_reply_is_phantom_session(self):
        assert self._session({"type": "bogus", "x": 1}) is None

    def test_reject_still_raises(self):
        with pytest.raises(WorkerRejected, match="incompatible"):
            self._session({"type": "reject", "reason": "incompatible"})
