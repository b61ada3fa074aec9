"""Randomly chosen multiprogrammed workload mixes (§7: 125 8-core mixes).

The evaluation pool defaults to the memory-intensive SPEC2006 subset: with
eight cores sharing one DDR4-2400 channel and an 8 MiB LLC, the paper's
average refresh overheads (26.3% at 128 Gbit — essentially the full
tRFC/tREFI blocking fraction) indicate a bandwidth-saturated memory system,
which is the regime the intensive subset reproduces.  ``intensive=False``
draws from the full profile table instead.
"""

from __future__ import annotations

import numpy as np

from repro.sim.trace import TraceProfile
from repro.workloads.spec import SPEC_PROFILES

#: Minimum MPKI for the memory-intensive evaluation pool.
INTENSIVE_MPKI = 10.0


def _pool(intensive: bool) -> list[TraceProfile]:
    if not intensive:
        return list(SPEC_PROFILES)
    return [p for p in SPEC_PROFILES if p.mpki >= INTENSIVE_MPKI]


def mix_for(
    mix_id: int, cores: int = 8, seed: int = 2022, intensive: bool = True
) -> list[TraceProfile]:
    """The ``mix_id``-th random mix, stable across runs."""
    pool = _pool(intensive)
    rng = np.random.default_rng(seed + mix_id)
    picks = rng.integers(0, len(pool), size=cores)
    return [pool[int(i)] for i in picks]
