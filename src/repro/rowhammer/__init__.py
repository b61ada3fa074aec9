"""RowHammer substrate: thresholds, mapping, PARA, and security analysis.

- :mod:`repro.rowhammer.mapping` — recovering the DRAM-internal row mapping
  with single-sided hammering (§4.3 footnote 8).
- :mod:`repro.rowhammer.threshold` — Algorithm 2 and binary-search
  RowHammer-threshold measurement.
- :mod:`repro.rowhammer.para` — the PARA preventive-refresh mechanism [84].
- :mod:`repro.rowhammer.security` — the paper's revisited PARA security
  analysis (Expressions 2–9, §9.1).
"""

from repro.rowhammer.defense import GrapheneDefense
from repro.rowhammer.graphene import GrapheneTracker
from repro.rowhammer.mapping import find_aggressors
from repro.rowhammer.para import Para
from repro.rowhammer.security import (
    legacy_pth,
    rowhammer_success_probability,
    k_factor,
    solve_pth,
)
from repro.rowhammer.threshold import HammerTestConfig, measure_threshold, run_hammer_test

__all__ = [
    "GrapheneDefense",
    "GrapheneTracker",
    "HammerTestConfig",
    "Para",
    "find_aggressors",
    "k_factor",
    "legacy_pth",
    "measure_threshold",
    "rowhammer_success_probability",
    "run_hammer_test",
    "solve_pth",
]
