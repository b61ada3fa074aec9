"""System configuration for the cycle-level simulator (paper Table 3)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dram.geometry import Geometry, geometry_for_capacity
from repro.dram.timing import DDR4_2400, TimingParams, timing_for_capacity


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a simulated system.

    Defaults follow Table 3: 8 cores at 3.2 GHz, 4-wide, 128-entry window;
    one channel, one rank, 16 banks, 64K rows/bank (8 Gbit chips); FR-FCFS
    with open-row policy and MOP mapping; 64-entry read/write queues.

    ``refresh_mode`` selects the refresh engine: ``"none"`` (the ideal
    No-Refresh system), ``"baseline"`` (rank-level REF every tREFI),
    ``"elastic"`` (REF deferred into idle time within DDR4's 8-REF
    postponement budget — the strongest scheduling-only baseline, §13), or
    ``"hira"`` (HiRA-MC).  ``tref_slack_acts`` is the N of HiRA-N
    (tRefSlack = N × tRC).  ``para_nrh`` enables PARA preventive refreshes
    configured for that RowHammer threshold (None disables PARA).

    ``refresh_granularity`` selects the refresh command granularity:
    ``"all_bank"`` (DDR4-style rank-level REF, tRFC blocks the whole rank)
    or ``"same_bank"`` (DDR5-style REFsb: each bank is refreshed
    individually every tREFI, blocking only that bank for tRFC_sb while
    its siblings keep serving demand).  It is orthogonal to
    ``refresh_mode``: baseline issues REFsb on a fixed per-bank cadence,
    elastic postpones per-bank REFsb into idle time within the same
    8-command budget, and HiRA's periodic stream becomes deadline-slacked
    REFsb commands that the scheduler overlaps with demand to *other
    banks* (preventive refreshes stay row-granular HiRA operations).
    """

    capacity_gbit: float = 8.0
    channels: int = 1
    ranks_per_channel: int = 1
    geometry: Geometry = None  # type: ignore[assignment]  # derived in __post_init__
    timing: TimingParams = None  # type: ignore[assignment]

    cores: int = 8
    cpu_ghz: float = 3.2
    issue_width: int = 4
    instr_window: int = 128
    mshr_per_core: int = 16

    read_queue_depth: int = 64
    write_queue_depth: int = 64
    write_drain_high: int = 48
    write_drain_low: int = 16

    refresh_mode: str = "baseline"
    refresh_granularity: str = "all_bank"
    tref_slack_acts: int = 2
    stagger_bank_refresh: bool = True
    #: Preventive-refresh mechanism: "para" (probabilistic [84]) or
    #: "graphene" (counter-based Misra–Gries tracking [135]); §5.1.2.
    defense: str = "para"
    para_nrh: float | None = None
    para_pth_override: float | None = None
    para_seed: int = 1234

    #: HiRA-MC policy ablations (§5.1.3): disable one parallelization class.
    disable_access_parallelization: bool = False
    disable_refresh_parallelization: bool = False

    #: Fraction of a bank's rows HiRA can pair with a given row (§4.2).
    hira_coverage: float = 0.32

    #: ACT-bandwidth pressure (fraction of the tFAW budget recently used,
    #: see ``MemoryController.act_pressure``) above which the Concurrent
    #: Refresh Finder prefers refresh-refresh pairs over refresh-demand
    #: interleaving.  Pressure quantizes to {0, 0.25, 0.5, 0.75, 1.0} and
    #: a two-ACT pair is only tFAW-legal at pressure <= 0.5, so the useful
    #: range is (0, 0.5]; values above 0.5 disable eager pairing and leave
    #: only the riding-deferral side of the policy.
    hira_pressure_threshold: float = 0.5
    #: Allow a due refresh to pull the bank's next periodic request forward
    #: so it can always form a refresh-refresh pair under ACT pressure.
    hira_eager_pairing: bool = True

    def __post_init__(self) -> None:
        if self.refresh_mode not in ("none", "baseline", "elastic", "hira"):
            raise ValueError(f"unknown refresh_mode {self.refresh_mode!r}")
        if self.refresh_granularity not in ("all_bank", "same_bank"):
            raise ValueError(
                f"unknown refresh_granularity {self.refresh_granularity!r}"
            )
        if self.defense not in ("para", "graphene"):
            raise ValueError(f"unknown defense {self.defense!r}")
        if self.tref_slack_acts < 0:
            raise ValueError(
                f"tref_slack_acts must be non-negative, got {self.tref_slack_acts}"
            )
        if self.geometry is None:
            geom = geometry_for_capacity(
                self.capacity_gbit,
                channels=self.channels,
                ranks_per_channel=self.ranks_per_channel,
            )
            object.__setattr__(self, "geometry", geom)
        if self.timing is None:
            object.__setattr__(self, "timing", timing_for_capacity(self.capacity_gbit))

    # ------------------------------------------------------------------
    # Derived cycle-domain quantities (memory bus clock)
    # ------------------------------------------------------------------
    @property
    def tck_ps(self) -> int:
        return self.timing.tck

    def cycles(self, ps: int) -> int:
        return self.timing.to_cycles(ps)

    @property
    def instr_per_mc_cycle(self) -> float:
        """Peak instructions retired per memory-bus cycle."""
        cpu_cycles_per_mc = (self.cpu_ghz * 1e9) * (self.tck_ps * 1e-12)
        return self.issue_width * cpu_cycles_per_mc

    @property
    def tref_slack_ps(self) -> int:
        return self.tref_slack_acts * self.timing.trc

    @property
    def rows_per_bank(self) -> int:
        return self.geometry.rows_per_bank

    @property
    def per_bank_refresh_interval_cycles(self) -> float:
        """How often one bank must refresh one row (tREFW / rows_per_bank)."""
        return self.timing.trefw / self.rows_per_bank / self.tck_ps

    def variant(self, **overrides) -> "SystemConfig":
        """A modified copy; geometry/timing re-derive unless overridden."""
        if "geometry" not in overrides and any(
            k in overrides for k in ("capacity_gbit", "channels", "ranks_per_channel")
        ):
            overrides.setdefault("geometry", None)
        if "timing" not in overrides and "capacity_gbit" in overrides:
            overrides.setdefault("timing", None)
        return replace(self, **overrides)
