"""Regression tests for bugs that broke a runtime contract.

Four places once broke rule 2 of the memo contract stated in
``MemoryController.schedule``: a non-issuing mutation inside ``schedule``
must call ``mark_dirty()``, which bumps ``_epoch`` and resets the
``_progress_at`` memo to 0.  They were the rank-drain block in the
baseline and elastic engines, HiRA's ``_refresh_active`` chokepoint, and
the elastic same-bank heap->deferred promotion.  ``TestMemoContract``
pins each fix on a hand-built state; ``dense_loop()`` in
``tests/test_kernel_equivalence.py`` checks the same contract on every
cycle the event kernel skips.
"""

from repro.core.engine import HiraRefreshEngine
from repro.sim.config import SystemConfig
from repro.sim.controller import BaselineRefreshEngine, MemoryController
from repro.sim.elastic import ElasticRefreshEngine

#: A memoized wake no real run reaches: only a mark can turn it into 0.
SENTINEL = 1 << 50


def make_mc(engine, **overrides):
    config = SystemConfig(**overrides)
    mc = MemoryController(0, config, engine)
    engine.para = None
    return mc


def arm_memo(mc) -> int:
    """Pretend ``schedule()`` memoized a wake; return the epoch to diff."""
    mc._progress_at = SENTINEL
    return mc._epoch


def marked(mc, epoch: int) -> bool:
    return mc._epoch > epoch and mc._progress_at == 0


def untouched(mc, epoch: int) -> bool:
    return mc._epoch == epoch and mc._progress_at == SENTINEL


class TestMemoContract:
    def test_baseline_rank_drain_block_marks_dirty(self):
        """Entering the REF drain (blocking a rank) must void the memo."""
        mc = make_mc(BaselineRefreshEngine(), refresh_mode="baseline")
        mc.issue_act(0, 0, 5, 0)  # open a bank: PRE is tRAS-gated, so
        mc._ta.ref_due[0] = 1     # urgent() can only block, not issue
        mc.mark_dirty()
        epoch = arm_memo(mc)
        issued = mc.engine.urgent(2)
        # Nothing issuable yet: urgent returns the tRAS-gated PRE's cycle.
        assert issued == mc._ta.next_pre[0]
        assert 0 in mc.blocked_ranks
        assert marked(mc, epoch), "blocking a rank must invalidate the memo"

    def test_baseline_block_does_not_remark_when_already_blocked(self):
        mc = make_mc(BaselineRefreshEngine(), refresh_mode="baseline")
        mc.issue_act(0, 0, 5, 0)
        mc._ta.ref_due[0] = 1
        mc.mark_dirty()
        mc.engine.urgent(2)
        epoch = arm_memo(mc)
        mc.engine.urgent(3)  # rank already blocked: no state change
        assert untouched(mc, epoch)

    def test_elastic_committed_rank_block_marks_dirty(self):
        mc = make_mc(ElasticRefreshEngine(), refresh_mode="elastic")
        mc.issue_act(0, 0, 5, 0)
        mc._ta.ref_due[0] = 1
        mc.mark_dirty()
        mc.engine._committed[0] = True  # already committed: only the
        epoch = arm_memo(mc)            # blocked-rank add can mark
        issued = mc.engine.urgent(2)
        assert issued == mc._ta.next_pre[0]
        assert 0 in mc.blocked_ranks
        assert marked(mc, epoch)

    def test_hira_refresh_active_marks_dirty(self):
        mc = make_mc(
            HiraRefreshEngine(), refresh_mode="hira", capacity_gbit=8.0
        )
        epoch = arm_memo(mc)
        mc.engine._refresh_active(0, 0)
        assert marked(mc, epoch), (
            "recomputing a bank's deadline-set membership moves the wake "
            "urgent returns and must invalidate the memo"
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
        epoch = arm_memo(mc)
        engine._sb_promote(now)
        assert not engine._sb_heap or engine._sb_heap[0][0] > now
        assert marked(mc, epoch), "heap->deferred moves must invalidate the memo"

    def test_elastic_sb_promote_noop_stays_clean(self):
        mc = make_mc(
            ElasticRefreshEngine(),
            refresh_mode="elastic",
            refresh_granularity="same_bank",
        )
        engine = mc.engine
        epoch = arm_memo(mc)
        engine._sb_promote(0)  # nothing due at cycle 0
        assert untouched(mc, epoch)
