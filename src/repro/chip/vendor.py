"""Vendor-class behaviour for timing-violating command sequences.

§12 reports that HiRA succeeds only on SK Hynix chips; chips from the two
other major manufacturers behave *as if they never received* the PRE or the
second ACT when tRAS/tRP are greatly violated.  We model that as a vendor
class attached to each chip design.
"""

from __future__ import annotations

import enum


class VendorClass(enum.Enum):
    """How a chip design reacts to HiRA's engineered ACT-PRE-ACT sequence."""

    #: Performs the sequence: early PRE starts, the second ACT interrupts it
    #: (SK Hynix-like behaviour; HiRA works).
    HYNIX_LIKE = "hynix_like"

    #: Ignores a PRE that greatly violates tRAS, so the bank stays open and
    #: the second ACT (to an open bank) is also ignored.
    SAMSUNG_LIKE = "samsung_like"

    #: Ignores the second ACT that greatly violates tRP (equivalent outcome:
    #: no second activation, no corruption, no parallel refresh).
    MICRON_LIKE = "micron_like"

    def ignores_early_pre(self, t1_ps: int, tras_ps: int) -> bool:
        """Whether a PRE issued ``t1_ps`` after ACT is silently dropped."""
        if self is VendorClass.SAMSUNG_LIKE:
            return t1_ps < tras_ps
        return False

    def ignores_fast_act(self, t2_ps: int, trp_ps: int) -> bool:
        """Whether an ACT issued ``t2_ps`` after PRE is silently dropped."""
        if self is VendorClass.MICRON_LIKE:
            return t2_ps < trp_ps
        return False
