"""Command-stream recording: the controller's logical command log.

A :class:`CommandAuditor` attaches to one :class:`MemoryController` and
records the logical command stream (ACT/PRE/REF/REFSB/RD/WR plus HiRA
compound operations) as the scheduler issues it.  It holds no timing
rules of its own: :meth:`CommandAuditor.violations` replays the records
through the declarative rule table of :mod:`repro.sim.oracle`, built
from the controller's configuration, so the stack has exactly one
after-the-fact timing checker.

The recorder's other job is interchange: :meth:`CommandAuditor.export_log`
writes the stream plus its cycle-domain timing and geometry as plain
JSON, and :func:`records_from_log` reads one back, so a log is
re-checkable without the simulator (see
``repro.sim.oracle.table_for_log``).

The auditor is pure observation: attaching one never changes scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.oracle import oracle_for_config


@dataclass(frozen=True, slots=True)
class CommandRecord:
    """One audited command: ``kind`` ∈ {ACT, PRE, REF, REFSB, RD, WR}.

    ``tag`` marks scheduling context: ``"demand"`` for normal commands,
    ``"hira2"`` for the engineered second ACT of a HiRA operation,
    ``"hira-pre"`` for its internal PRE, ``"refresh"`` for refresh ACTs,
    and ``"close"`` for the deferred PRE closing a refresh operation.
    ``hira2`` and ``close`` records carry a later cycle than the command
    that issued them (see ``repro.sim.oracle.AHEAD_TAGS``).
    ``RD``/``WR`` column accesses feed the tRTP/tWR and data-bus rules.
    """

    cycle: int
    kind: str
    rank: int
    bank: int | None = None
    row: int | None = None
    tag: str = "demand"


class CommandAuditor:
    """Records one controller's command stream: its one command log.

    A second auditor on the same controller raises ``ValueError``.  Each
    of :attr:`subscribers` is called with the records of every issue
    primitive, as it issues (the sim tracer subscribes).
    """

    def __init__(self, mc):
        if mc.auditor is not None:
            raise ValueError(f"channel {mc.channel_id} already has an auditor")
        self.mc = mc
        mc.auditor = self
        self.records: list[CommandRecord] = []
        self.subscribers: list = []

    def _log(self, *records: CommandRecord) -> None:
        self.records += records
        for notify in self.subscribers:
            notify(records)

    # ------------------------------------------------------------------
    # Hooks called by the controller's issue primitives
    # ------------------------------------------------------------------
    def on_act(self, now: int, rank: int, bank: int, row: int) -> None:
        self._log(CommandRecord(now, "ACT", rank, bank, row))

    def on_pre(self, now: int, rank: int, bank: int) -> None:
        self._log(CommandRecord(now, "PRE", rank, bank))

    def on_ref(self, now: int, rank: int) -> None:
        self._log(CommandRecord(now, "REF", rank))

    def on_refsb(self, now: int, rank: int, bank: int) -> None:
        self._log(CommandRecord(now, "REFSB", rank, bank))

    def on_col(self, now: int, rank: int, bank: int, is_write: bool) -> None:
        # Both directions are recorded: WR feeds the tWR check, RD feeds
        # tRTP, and both feed the channel data-bus occupancy check.
        self._log(CommandRecord(now, "WR" if is_write else "RD", rank, bank))

    def on_solo_refresh(self, now: int, rank: int, bank: int, close: int) -> None:
        self._log(
            CommandRecord(now, "ACT", rank, bank, tag="refresh"),
            CommandRecord(close, "PRE", rank, bank, tag="close"),
        )

    def on_hira_op(
        self,
        now: int,
        rank: int,
        bank: int,
        refresh_row: int | None,
        target_row: int | None,
        eff: int,
        close: int | None = None,
    ) -> None:
        """One ACT-PRE-ACT HiRA sequence (refresh-access or refresh-refresh)."""
        records = [
            CommandRecord(now, "ACT", rank, bank, refresh_row, "refresh"),
            CommandRecord(now, "PRE", rank, bank, tag="hira-pre"),
            CommandRecord(eff, "ACT", rank, bank, target_row, "hira2"),
        ]
        if close is not None:
            records.append(CommandRecord(close, "PRE", rank, bank, tag="close"))
        self._log(*records)

    # ------------------------------------------------------------------
    # Interchange
    # ------------------------------------------------------------------
    def export_log(self) -> dict:
        """The recorded stream plus everything needed to re-verify it.

        The payload is plain JSON: the cycle-domain timing parameters,
        the geometry, and the records.  ``repro.sim.oracle.table_for_log``
        rebuilds a rule table from ``timing_cycles``/``geometry`` alone,
        so an exported log is re-checkable anywhere — no simulator, no
        ``TimingParams`` — which makes it the interchange format between
        runs, CI jobs, and external checkers.
        """
        mc = self.mc
        config = mc.config
        return {
            "version": 1,
            "refresh_mode": config.refresh_mode,
            "refresh_granularity": config.refresh_granularity,
            "geometry": {
                "banks_per_bankgroup": mc.banks_per_bankgroup,
                "banks_per_rank": mc.banks_per_rank,
                "n_ranks": config.ranks_per_channel,
            },
            "timing_cycles": {
                "trcd": mc.trcd_c,
                "tras": mc.tras_c,
                "trp": mc.trp_c,
                "trc": mc.trc_c,
                "trfc": mc.trfc_c,
                "trefi": mc.trefi_c,
                "tfaw": mc.tfaw_c,
                "trrd_s": mc.trrd_s_c,
                "trrd_l": mc.trrd_l_c,
                "twr": mc.twr_c,
                "trtp": mc.trtp_c,
                "tcl": mc.tcl_c,
                "tcwl": mc.tcwl_c,
                "tbl": mc.tbl_c,
                "trtw": mc.trtw_c,
                "twtr": mc.twtr_c,
                "trfc_sb": mc.trfc_sb_c,
                "trefsb_gap": mc.trefsb_gap_c,
                "hira_gap": mc.hira_gap_c,
            },
            "records": [
                [r.cycle, r.kind, r.rank, r.bank, r.row, r.tag]
                for r in self.records
            ],
        }

    # ------------------------------------------------------------------
    # Checking (delegated to the oracle)
    # ------------------------------------------------------------------
    def violations(self) -> list[str]:
        """Every timing violation in the recorded stream, one message each.

        The recorded stream is replayed through the oracle built from the
        controller's configuration; the auditor itself holds no rules.
        """
        return oracle_for_config(self.mc.config).check_messages(self.records)

    def check(self) -> None:
        """Raise ``AssertionError`` with every violation, if any."""
        problems = self.violations()
        if problems:
            raise AssertionError(
                f"{len(problems)} timing violations:\n" + "\n".join(problems[:20])
            )


def records_from_log(payload: dict) -> list[CommandRecord]:
    """Rebuild :class:`CommandRecord` objects from an exported log."""
    return [
        CommandRecord(cycle, kind, rank, bank, row, tag)
        for cycle, kind, rank, bank, row, tag in payload["records"]
    ]


def attach_auditors(system) -> list[CommandAuditor]:
    """One auditor per memory controller of a built ``System``: the one
    already attached (say, by a tracer) where there is one."""
    return [mc.auditor or CommandAuditor(mc) for mc in system.controllers]
