"""HiRA and the HiRA Memory Controller (the paper's §3 and §5 contribution).

- :mod:`repro.core.hira_op` — the HiRA operation and its latency identities.
- :mod:`repro.core.refptr_table` — the RefPtr Table (per-subarray refresh
  pointers, component 1).
- :mod:`repro.core.pr_fifo` — the PR-FIFO (queued preventive refreshes,
  component 2).
- :mod:`repro.core.spt` — the Subarray Pairs Table (§5.1.4).
- :mod:`repro.core.engine` — the Concurrent Refresh Finder wired into the
  memory request scheduler as a refresh engine (components 1–4 acting
  together, Fig. 7/8).
"""

from repro.core.engine import HiraRefreshEngine
from repro.core.hira_op import HiraOperation, RefreshKind
from repro.core.pr_fifo import PrFifo
from repro.core.refptr_table import RefPtrTable
from repro.core.spt import SubarrayPairsTable

__all__ = [
    "HiraOperation",
    "HiraRefreshEngine",
    "PrFifo",
    "RefPtrTable",
    "RefreshKind",
    "SubarrayPairsTable",
]
