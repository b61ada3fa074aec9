"""DRAM timing parameters and density-scaling models.

All durations are stored in integer **picoseconds** so that the chip model
and the cycle-level simulator never accumulate floating-point error.  The
values of the ``DDR4_2400`` preset follow the paper (Table 3 and §2.2/§3):
``tRAS = 32 ns``, ``tRP = 14.25 ns``, ``tRC = 46.25 ns``, ``tRCD = 14.5 ns``,
``tREFI = 7.8 µs``, ``tREFW = 64 ms``, and the HiRA timings
``t1 = t2 = 3 ns``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

#: Picoseconds per nanosecond, for readability at call sites.
PS_PER_NS = 1_000


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds (exact for 0.25 ns grid)."""
    return round(value * PS_PER_NS)


@dataclass(frozen=True, slots=True)
class TimingParams:
    """A complete set of DDRx timing parameters, in picoseconds.

    Attributes mirror the JEDEC names used in the paper:

    - ``tck``: bus clock period (DDR4-2400 command clock, 0.833 ns).
    - ``trcd``: ACT → column access (row activation latency).
    - ``tras``: ACT → PRE (charge restoration latency).
    - ``trp``: PRE → ACT (precharge latency).
    - ``trc``: ACT → ACT to the same bank (``tras + trp``).
    - ``trfc``: REF blocking latency for the rank.
    - ``trefi``: interval between REF commands.
    - ``trefw``: refresh window (retention guarantee).
    - ``tfaw``: four-activation window per rank.
    - ``trrd_s`` / ``trrd_l``: minimum ACT → ACT spacing between banks of
      *different* bank groups (short) and within the *same* bank group
      (long).  DDR4 splits tRRD because same-group banks share local I/O
      and charge-pump resources.
    - ``twr``: write recovery — the delay between the end of a write data
      burst and a PRE to the written bank.
    - ``trtp``: read-to-precharge — the minimum delay between a RD command
      and a PRE to the same bank (the read must drain from the sense
      amplifiers before the row closes).
    - ``trtw`` / ``twtr``: data-bus turnaround — the minimum idle gap on a
      channel's data bus between the end of a read burst and the start of
      a write burst (``trtw``: the bus and on-die termination must switch
      direction) and between the end of a write burst and the start of a
      read burst (``twtr``: written data must reach the sense amplifiers
      before a read can stream out).  Zero disables turnaround gating.
    - ``trfc_sb``: same-bank refresh latency — how long a DDR5-style REFsb
      blocks its *one* target bank (the rest of the rank stays available,
      unlike the rank-wide ``trfc`` of an all-bank REF).
    - ``trefsb_gap``: minimum spacing between consecutive REFsb commands
      to the same rank (shared refresh-control resources).
    - ``tcwl``: CAS write latency (WR command → start of write data burst).
    - ``tcl`` / ``tbl``: column access latency / data burst duration, used by
      the system simulator to time read completion.
    - ``hira_t1`` / ``hira_t2``: HiRA's engineered ACT→PRE and PRE→ACT gaps.
    """

    tck: int = ns(0.833)
    trcd: int = ns(14.5)
    tras: int = ns(32.0)
    trp: int = ns(14.25)
    trc: int = ns(46.25)
    trfc: int = ns(350.0)
    trefi: int = ns(7_800.0)
    trefw: int = ns(64_000_000.0)
    tfaw: int = ns(16.0)
    #: JEDEC DDR4-2400 tRRD_S / tRRD_L for 1 KiB pages (Table 3's row
    #: width): cross-group ACTs need only the short spacing, same-group
    #: ACTs the long one.
    trrd_s: int = ns(3.3)
    trrd_l: int = ns(4.9)
    #: JEDEC DDR4 write recovery and CAS write latency (DDR4-2400: CWL=12).
    twr: int = ns(15.0)
    #: JEDEC DDR4 read-to-precharge (max(4 nCK, 7.5 ns) at DDR4-2400).
    trtp: int = ns(7.5)
    tcwl: int = ns(10.0)
    tcl: int = ns(14.25)
    tbl: int = ns(3.33)
    #: Read→write bus turnaround: two bus clocks at DDR4-2400 (the DQ bus
    #: and ODT switch direction between the RD and WR bursts).
    trtw: int = ns(1.666)
    #: Write→read turnaround, dominated by tWTR_L (7.5 ns at DDR4-2400):
    #: written data must land internally before a read can stream out.
    twtr: int = ns(7.5)
    #: DDR5-style same-bank refresh (REFsb) latency: one bank blocked for
    #: ~0.4 × tRFC while its sibling banks keep serving demand.  Scales
    #: with tRFC under :meth:`with_trfc` (capacity scaling).
    trfc_sb: int = ns(140.0)
    #: Minimum REFsb→REFsb spacing on a rank (shared refresh control).
    trefsb_gap: int = ns(30.0)
    hira_t1: int = ns(3.0)
    hira_t2: int = ns(3.0)

    def __post_init__(self) -> None:
        if self.trc < self.tras + self.trp:
            raise ValueError(
                "tRC must be at least tRAS + tRP "
                f"({self.trc} < {self.tras} + {self.trp})"
            )
        if self.trrd_l < self.trrd_s:
            raise ValueError(
                "tRRD_L must be at least tRRD_S "
                f"({self.trrd_l} < {self.trrd_s})"
            )
        for name in (
            "tck", "trcd", "tras", "trp", "trfc", "trefi", "trefw", "tfaw",
            "trrd_s", "trrd_l", "twr", "trtp", "tcl", "tcwl", "tbl",
            "trfc_sb", "trefsb_gap", "hira_t1", "hira_t2",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("trtw", "twtr"):  # zero = turnaround gating disabled
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.hira_t1 + self.hira_t2 < self.trrd_l:
            raise ValueError(
                "HiRA's t1 + t2 must be at least tRRD_L "
                f"({self.hira_t1} + {self.hira_t2} < {self.trrd_l}): the "
                "second ACT of a HiRA operation goes to the same bank, so "
                "tRRD_L binds it, and the controller issues it exactly "
                "t1 + t2 after the first ACT, never later"
            )
        if self.trfc_sb > self.trfc:
            raise ValueError(
                "tRFC_sb must not exceed tRFC "
                f"({self.trfc_sb} > {self.trfc}): refreshing one bank "
                "cannot take longer than refreshing the whole rank"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def to_cycles(self, duration_ps: int) -> int:
        """Round a duration up to whole bus clock cycles."""
        return -(-duration_ps // self.tck)

    @property
    def hira_op_ps(self) -> int:
        """Latency of the HiRA ACT-PRE-ACT sequence itself (t1 + t2)."""
        return self.hira_t1 + self.hira_t2

    def with_trfc(self, trfc_ps: int) -> "TimingParams":
        """A copy with a different refresh latency (for capacity scaling).

        ``trfc_sb`` scales by the same factor: both latencies are dominated
        by the same row-refresh work per command, so the same-bank/all-bank
        ratio is a device property that capacity scaling preserves.
        """
        sb = max(1, round(self.trfc_sb * trfc_ps / self.trfc))
        return replace(self, trfc=trfc_ps, trfc_sb=sb)

#: The DDR4-2400 configuration used throughout the paper's evaluation.
DDR4_2400 = TimingParams()

#: A DDR5-4800-class preset (§2.3: tREFW halves to 32 ms and tREFI to
#: 3.9 µs in DDR5, doubling the refresh-command rate — the density trend
#: HiRA targets).  Core timings stay comparable in nanoseconds.
DDR5_4800 = TimingParams(
    tck=ns(0.416),
    trcd=ns(14.0),
    tras=ns(32.0),
    trp=ns(14.25),
    trc=ns(46.25),
    trfc=ns(295.0),
    trefi=ns(3_900.0),
    trefw=ns(32_000_000.0),
    tfaw=ns(13.333),
    trrd_s=ns(3.3),
    trrd_l=ns(5.0),
    twr=ns(30.0),
    trtp=ns(7.5),
    tcwl=ns(10.0),
    tcl=ns(14.0),
    tbl=ns(3.33),
    # Two bus clocks at the faster DDR5-4800 tCK; tWTR_L grows to 10 ns.
    trtw=ns(0.832),
    twtr=ns(10.0),
    # DDR5 fine-granularity refresh: tRFCsb ≈ 115 ns for an 8 Gbit die,
    # with ~30 ns between same-bank REF commands on a rank.
    trfc_sb=ns(115.0),
    trefsb_gap=ns(30.0),
)


def trfc_for_capacity_ns(capacity_gbit: float) -> float:
    """Expression 1: project tRFC (ns) for a chip capacity in Gbit.

    ``tRFC = 110 × C_chip^0.6`` — the state-of-the-art regression model the
    paper adopts from Nguyen et al. [124] for scaling refresh latency with
    DRAM density.
    """
    if capacity_gbit <= 0:
        raise ValueError("chip capacity must be positive")
    return 110.0 * capacity_gbit**0.6


def timing_for_capacity(capacity_gbit: float, base: TimingParams = DDR4_2400) -> TimingParams:
    """DDR4 timing preset with tRFC scaled for the given chip capacity."""
    return base.with_trfc(ns(trfc_for_capacity_ns(capacity_gbit)))


def projected_rows_per_bank(
    capacity_gbit: float, anchor_gbit: float = 8.0, anchor_rows: int = 65_536
) -> int:
    """Rows per bank for *future high-density* chips (the §8 capacity sweep).

    Density scaling grows both the row count and the row width: we project
    rows ∝ √capacity, anchored at Table 3's 64K rows per bank for 8 Gbit
    (2 Gbit → 32K, 32 Gbit → 128K, 128 Gbit → 256K).  A purely linear row
    count would make per-row refresh physically infeasible at 128 Gbit
    under the paper's own tFAW = 16 ns budget (§5.2): 16 banks × 1M rows
    per 64 ms is one activation every 3.8 ns, exceeding the rank's entire
    four-activation-window allowance — while the paper's Fig. 9 shows HiRA
    operating with modest overhead there.  The square-root projection keeps
    refresh demand within the power budget at every swept capacity, which
    is the regime the paper evaluates.
    """
    if capacity_gbit <= 0:
        raise ValueError("chip capacity must be positive")
    rows = anchor_rows * math.sqrt(capacity_gbit / anchor_gbit)
    # Round to whole 512-row subarrays.
    return max(512, int(round(rows / 512.0)) * 512)


def nominal_two_row_refresh_latency_ps(tp: TimingParams = DDR4_2400) -> int:
    """Latency of refreshing two rows with standard commands.

    ACT, wait tRAS, PRE, wait tRP, ACT, wait tRAS — 78.25 ns at DDR4-2400
    (paper footnote 2).
    """
    return tp.tras + tp.trp + tp.tras


def hira_two_row_refresh_latency_ps(tp: TimingParams = DDR4_2400) -> int:
    """Latency of refreshing two rows with one HiRA operation.

    t1 + t2 + tRAS — 38 ns at the paper's t1 = t2 = 3 ns configuration,
    a 51.4% reduction over the nominal 78.25 ns (§4.2).
    """
    return tp.hira_t1 + tp.hira_t2 + tp.tras


def hira_latency_reduction(tp: TimingParams = DDR4_2400) -> float:
    """Fractional latency reduction of HiRA vs. nominal two-row refresh."""
    nominal = nominal_two_row_refresh_latency_ps(tp)
    hira = hira_two_row_refresh_latency_ps(tp)
    return 1.0 - hira / nominal


assert math.isclose(hira_latency_reduction(), 0.514, abs_tol=0.002), (
    "DDR4-2400 preset must reproduce the paper's 51.4% latency reduction"
)
