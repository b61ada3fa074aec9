"""SPEC CPU2006-like workload profiles and multiprogrammed mixes (§7)."""

from repro.workloads.spec import SPEC_PROFILES
from repro.workloads.mixes import mix_for

__all__ = ["SPEC_PROFILES", "mix_for"]
