"""The timing oracle: a declarative rule-table checker.

This is the stack's one after-the-fact timing checker, and the second
opinion on the controller (:mod:`repro.sim.controller`): a timing rule
the controller's issue gates get wrong — a wrong formula, a missing
interlock — must not pass here too.  The module compiles
:class:`repro.dram.timing.TimingParams` into an explicit, serialisable
table of declarative rules and replays a recorded command stream against
that table.  :class:`repro.sim.audit.CommandAuditor` only records the
stream; its ``violations()`` calls :func:`oracle_for_config`.  The oracle
shares **no scheduling code** with the controller or the auditor; the
only common ground is the log format (``cycle``, ``kind``, ``rank``,
``bank``, ``row``, ``tag`` per command) and the ps→cycle conversion that
defines the cycle domain itself.

The idiom is ported from the antmicro ``lpddr4-dram-controller`` UVM
testbench's ``TimingChecker``: a timing constraint is *data* — a
``(prev command, current command, scope, min delay)`` tuple — and the
checker is one generic loop that, for every incoming command, looks up
the most recent previous command of the rule's kind within the rule's
scope and compares the gap against the tabled delay.  For reference
(the band0 file set carrying that testbench is not vendored into this
checkout), the LPDDR4-2400 values it programs into its table are:
tRP = 18 ns, tRCD = 18 ns, tRAS = 42 ns, tRC = 60 ns, tWR = 18 ns,
tWTR = 10 ns, tRRD = 10 ns, tFAW = 40 ns, tRFCab = 280 ns (8 Gbit),
tREFI = 3.904 µs, tCCD = 8 tCK, tZQCS = 90 ns.  This module generates
the analogous DDR4/DDR5 table from ``TimingParams`` instead of
hard-coding any standard's numbers.

Replay is incremental (:meth:`TimingOracle.feed`), and the same state
answers :meth:`TimingOracle.earliest` — when a command may next issue
and which rule binds — so one rule implementation both judges a stream
and explains the simulation tracer's stalls.

Rule classes
============

- :class:`PairRule` — ``(prev, curr, scope, min_delay)``: the current
  command must trail the most recent ``prev`` in the same scope by at
  least ``min_delay`` cycles.  Scopes: ``same-bank``,
  ``same-bank-group``, ``same-rank``.  Busy windows (tRFC after REF,
  tRFC_sb after REFsb) are pair rules too: one entry per command kind
  that the window blocks — including the REF↔REFsb interlocks.
- :class:`BusRule` — data-bus occupancy and turnaround, measured between
  *burst starts* (command cycle + tCL for reads, + tCWL for writes).
  Scope ``same-channel-bus`` spaces same-direction bursts by tBL; scope
  ``data-bus-direction`` adds the tRTW/tWTR turnaround on a direction
  change.
- :class:`WindowRule` — sliding-window count limits (tFAW: at most four
  ACTs per rank in any tFAW window).
- :class:`CadenceRule` — maximum gaps between refresh commands (the
  nine-tREFI postponement debit limit per rank for REF, per bank for
  REFsb) plus stream-endpoint starvation checks.
- State rules (fixed, parameterised by the table) — the target bank must
  be precharged before ACT/REFsb and every bank of the rank before REF,
  column accesses require an open row, and a ``hira2``-tagged ACT must
  trail its bank's previous ACT by *exactly* the engineered t1 + t2 gap
  (the paper's off-spec contribution; everything around it is nominal).

The table doubles as an interchange format: :meth:`RuleTable.to_json` /
:meth:`RuleTable.from_json` round-trip the whole rule set as plain JSON,
which is the natural import path for vendor or Ramulator-style device
configurations later (see ROADMAP "standards matrix").
"""

from __future__ import annotations

import bisect
import copy
from collections import deque
from dataclasses import dataclass
from operator import attrgetter, itemgetter

#: Maximum REF-to-REF gap DDR4 allows (8 postponed commands ⇒ 9 × tREFI).
REF_DEBIT_LIMIT = 9

SAME_BANK = "same-bank"
SAME_BANK_GROUP = "same-bank-group"
SAME_RANK = "same-rank"
SAME_CHANNEL_BUS = "same-channel-bus"
DATA_BUS_DIRECTION = "data-bus-direction"

_FAR_PAST = -1 << 60
_FAR_FUTURE = 1 << 60
_CYCLE = attrgetter("cycle")
_START = itemgetter(0)

#: Tags of records stamped later than their issue: HiRA's second ACT
#: (issue + t1 + t2) and the deferred PRE closing a refresh operation.
AHEAD_TAGS = ("hira2", "close")


@dataclass(frozen=True, slots=True)
class PairRule:
    """Min-delay rule between the most recent ``prev`` and a ``curr``."""

    name: str
    prev: str
    curr: str
    scope: str
    min_delay: int
    #: ``curr`` records with one of these tags are exempt (HiRA's
    #: engineered internals are checked by the hira-gap state rule).
    exempt_tags: tuple[str, ...] = ()
    note: str = ""

    @property
    def rule_id(self) -> str:
        return f"{self.name}({self.prev}->{self.curr})@{self.scope}"


@dataclass(frozen=True, slots=True)
class BusRule:
    """Min gap between consecutive data-bus burst *starts*."""

    name: str
    prev: str
    curr: str
    scope: str
    min_delay: int
    note: str = ""

    @property
    def rule_id(self) -> str:
        return f"{self.name}({self.prev}->{self.curr})@{self.scope}"


@dataclass(frozen=True, slots=True)
class WindowRule:
    """At most ``max_count`` commands of ``kind`` in any ``window``."""

    name: str
    kind: str
    scope: str
    max_count: int
    window: int
    note: str = ""

    @property
    def rule_id(self) -> str:
        return f"{self.name}({self.kind})@{self.scope}"


@dataclass(frozen=True, slots=True)
class CadenceRule:
    """Max gap between consecutive ``kind`` commands per scope key.

    With ``check_endpoints`` the stream bounds are audited too: the first
    command must arrive within ``max_gap`` of cycle 0, the last within
    ``max_gap`` of the stream end, and a scope key with no command at all
    is flagged once the stream outlives the limit.
    """

    name: str
    kind: str
    scope: str
    max_gap: int
    check_endpoints: bool = False
    note: str = ""

    @property
    def rule_id(self) -> str:
        return f"{self.name}({self.kind})@{self.scope}"


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken rule: the rule id plus the two commands that broke it."""

    rule: str
    cycle: int
    message: str
    prev: object = None
    curr: object = None

    def __str__(self) -> str:
        return f"@{self.cycle}: {self.message}"


@dataclass
class RuleTable:
    """A complete, self-contained rule set for one device configuration."""

    pair_rules: tuple[PairRule, ...]
    bus_rules: tuple[BusRule, ...]
    window_rules: tuple[WindowRule, ...]
    cadence_rules: tuple[CadenceRule, ...]
    #: Scalars the state rules need: the exact HiRA gap and the RD/WR
    #: burst-start offsets (command → first data beat).
    hira_gap: int = 0
    tcl: int = 0
    tcwl: int = 0
    banks_per_bankgroup: int = 4
    banks_per_rank: int = 16
    n_ranks: int = 1
    refresh_mode: str = "baseline"
    refresh_granularity: str = "all_bank"

    # -- interchange ----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "version": 1,
            "hira_gap": self.hira_gap,
            "tcl": self.tcl,
            "tcwl": self.tcwl,
            "banks_per_bankgroup": self.banks_per_bankgroup,
            "banks_per_rank": self.banks_per_rank,
            "n_ranks": self.n_ranks,
            "refresh_mode": self.refresh_mode,
            "refresh_granularity": self.refresh_granularity,
            "pair_rules": [
                {
                    "name": r.name, "prev": r.prev, "curr": r.curr,
                    "scope": r.scope, "min_delay": r.min_delay,
                    "exempt_tags": list(r.exempt_tags), "note": r.note,
                }
                for r in self.pair_rules
            ],
            "bus_rules": [
                {
                    "name": r.name, "prev": r.prev, "curr": r.curr,
                    "scope": r.scope, "min_delay": r.min_delay, "note": r.note,
                }
                for r in self.bus_rules
            ],
            "window_rules": [
                {
                    "name": r.name, "kind": r.kind, "scope": r.scope,
                    "max_count": r.max_count, "window": r.window,
                    "note": r.note,
                }
                for r in self.window_rules
            ],
            "cadence_rules": [
                {
                    "name": r.name, "kind": r.kind, "scope": r.scope,
                    "max_gap": r.max_gap,
                    "check_endpoints": r.check_endpoints, "note": r.note,
                }
                for r in self.cadence_rules
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RuleTable":
        return cls(
            pair_rules=tuple(
                PairRule(
                    r["name"], r["prev"], r["curr"], r["scope"],
                    r["min_delay"], tuple(r.get("exempt_tags", ())),
                    r.get("note", ""),
                )
                for r in payload["pair_rules"]
            ),
            bus_rules=tuple(
                BusRule(
                    r["name"], r["prev"], r["curr"], r["scope"],
                    r["min_delay"], r.get("note", ""),
                )
                for r in payload["bus_rules"]
            ),
            window_rules=tuple(
                WindowRule(
                    r["name"], r["kind"], r["scope"], r["max_count"],
                    r["window"], r.get("note", ""),
                )
                for r in payload["window_rules"]
            ),
            cadence_rules=tuple(
                CadenceRule(
                    r["name"], r["kind"], r["scope"], r["max_gap"],
                    r.get("check_endpoints", False), r.get("note", ""),
                )
                for r in payload["cadence_rules"]
            ),
            hira_gap=payload["hira_gap"],
            tcl=payload["tcl"],
            tcwl=payload["tcwl"],
            banks_per_bankgroup=payload["banks_per_bankgroup"],
            banks_per_rank=payload["banks_per_rank"],
            n_ranks=payload["n_ranks"],
            refresh_mode=payload["refresh_mode"],
            refresh_granularity=payload["refresh_granularity"],
        )


def build_rule_table_cycles(
    *,
    trcd: int,
    tras: int,
    trp: int,
    trc: int,
    trfc: int,
    trefi: int,
    tfaw: int,
    trrd_s: int,
    trrd_l: int,
    twr: int,
    trtp: int,
    tcl: int,
    tcwl: int,
    tbl: int,
    trtw: int,
    twtr: int,
    trfc_sb: int,
    trefsb_gap: int,
    hira_gap: int,
    banks_per_bankgroup: int,
    banks_per_rank: int,
    n_ranks: int,
    refresh_mode: str = "baseline",
    refresh_granularity: str = "all_bank",
) -> RuleTable:
    """Compile already-cycle-domain timing values into a rule table.

    This is the interchange entry point: exported audit logs carry their
    cycle-domain parameters, and vendor configs supplying cycle counts
    directly can build a table without a :class:`TimingParams`.
    """
    pair: list[PairRule] = [
        # Bank-local command spacing.  HiRA's engineered internals are
        # tag-exempt here and pinned exactly by the hira-gap state rule.
        PairRule("tRC", "ACT", "ACT", SAME_BANK, trc, ("hira2",)),
        PairRule("tRAS", "ACT", "PRE", SAME_BANK, tras, ("hira-pre",),
                 "HiRA's internal PRE interrupts restoration by design"),
        PairRule("tRP", "PRE", "ACT", SAME_BANK, trp, ("hira2",)),
        PairRule("tRCD", "ACT", "RD", SAME_BANK, trcd),
        PairRule("tRCD", "ACT", "WR", SAME_BANK, trcd),
        PairRule("tRTP", "RD", "PRE", SAME_BANK, trtp),
        PairRule("tWR", "WR", "PRE", SAME_BANK, tcwl + tbl + twr,
                 note="tCWL+tBL+tWR measured from the WR command"),
        # Rank-level ACT spacing (short cross-group, long same-group).
        PairRule("tRRD_S", "ACT", "ACT", SAME_RANK, trrd_s),
        PairRule("tRRD_L", "ACT", "ACT", SAME_BANK_GROUP, trrd_l),
        # All-bank REF busy window: nothing touches the rank for tRFC —
        # including a same-bank REFsb (the REF→REFsb interlock).
        *(
            PairRule("tRFC", "REF", kind, SAME_RANK, trfc,
                     note="rank busy until tRFC after REF")
            for kind in ("ACT", "PRE", "RD", "WR", "REF", "REFSB")
        ),
        # Same-bank REFsb busy window: the one target bank is blocked for
        # tRFC_sb; a rank-wide REF would hit the busy bank (the reverse
        # interlock), everything else on the rank keeps scheduling.
        *(
            PairRule("tRFC_sb", "REFSB", kind, SAME_BANK, trfc_sb,
                     note="bank busy until tRFC_sb after REFsb")
            for kind in ("ACT", "PRE", "RD", "WR", "REFSB")
        ),
        PairRule("tRFC_sb", "REFSB", "REF", SAME_RANK, trfc_sb,
                 note="no all-bank REF while a REFsb is in flight"),
        PairRule("tREFSB_GAP", "REFSB", "REFSB", SAME_RANK, trefsb_gap,
                 note="consecutive REFsb share rank refresh control"),
        # Refresh targets must be precharged for tRP first.
        PairRule("tRP", "PRE", "REF", SAME_RANK, trp,
                 note="every bank precharged tRP before REF"),
        PairRule("tRP", "PRE", "REFSB", SAME_BANK, trp,
                 note="target bank precharged tRP before REFsb"),
    ]
    bus: list[BusRule] = [
        BusRule("tBL", "RD", "RD", SAME_CHANNEL_BUS, tbl),
        BusRule("tBL", "WR", "WR", SAME_CHANNEL_BUS, tbl),
        BusRule("tBL+tRTW", "RD", "WR", DATA_BUS_DIRECTION, tbl + trtw,
                "read burst, turnaround, then the write burst"),
        BusRule("tBL+tWTR", "WR", "RD", DATA_BUS_DIRECTION, tbl + twtr,
                "write burst, turnaround, then the read burst"),
    ]
    window = [WindowRule("tFAW", "ACT", SAME_RANK, 4, tfaw)]
    cadence = [
        CadenceRule(
            "tREFI-cadence", "REF", SAME_RANK,
            REF_DEBIT_LIMIT * trefi + trfc,
            check_endpoints=(
                refresh_granularity == "all_bank"
                and refresh_mode in ("baseline", "elastic")
            ),
            note=f"{REF_DEBIT_LIMIT} x tREFI postponement debit limit",
        ),
        CadenceRule(
            "tREFI-cadence", "REFSB", SAME_BANK,
            REF_DEBIT_LIMIT * trefi + trfc_sb,
            check_endpoints=(
                refresh_granularity == "same_bank"
                and refresh_mode in ("baseline", "elastic", "hira")
            ),
            note="per-bank nine-tREFI limit in same-bank mode",
        ),
    ]
    return RuleTable(
        pair_rules=tuple(pair),
        bus_rules=tuple(bus),
        window_rules=tuple(window),
        cadence_rules=tuple(cadence),
        hira_gap=hira_gap,
        tcl=tcl,
        tcwl=tcwl,
        banks_per_bankgroup=banks_per_bankgroup,
        banks_per_rank=banks_per_rank,
        n_ranks=n_ranks,
        refresh_mode=refresh_mode,
        refresh_granularity=refresh_granularity,
    )


def build_rule_table(
    timing,
    *,
    banks_per_bankgroup: int,
    banks_per_rank: int,
    n_ranks: int,
    refresh_mode: str = "baseline",
    refresh_granularity: str = "all_bank",
) -> RuleTable:
    """Generate the rule table from a :class:`TimingParams`.

    Every delay is rounded up to whole bus cycles with the same
    ``to_cycles`` conversion that defines the simulator's cycle domain —
    the *only* piece of arithmetic the oracle shares with the rest of
    the stack.
    """
    c = timing.to_cycles
    return build_rule_table_cycles(
        trcd=c(timing.trcd),
        tras=c(timing.tras),
        trp=c(timing.trp),
        trc=c(timing.trc),
        trfc=c(timing.trfc),
        trefi=c(timing.trefi),
        tfaw=c(timing.tfaw),
        trrd_s=c(timing.trrd_s),
        trrd_l=c(timing.trrd_l),
        twr=c(timing.twr),
        trtp=c(timing.trtp),
        tcl=c(timing.tcl),
        tcwl=c(timing.tcwl),
        tbl=c(timing.tbl),
        trtw=c(timing.trtw) if timing.trtw else 0,
        twtr=c(timing.twtr) if timing.twtr else 0,
        trfc_sb=c(timing.trfc_sb),
        trefsb_gap=c(timing.trefsb_gap),
        hira_gap=c(timing.hira_t1 + timing.hira_t2),
        banks_per_bankgroup=banks_per_bankgroup,
        banks_per_rank=banks_per_rank,
        n_ranks=n_ranks,
        refresh_mode=refresh_mode,
        refresh_granularity=refresh_granularity,
    )


class TimingOracle:
    """One replay of a command log against a :class:`RuleTable`.

    Records are duck-typed: anything with ``cycle``, ``kind``, ``rank``,
    ``bank``, ``row`` and ``tag`` attributes works (the auditor's
    :class:`repro.sim.audit.CommandRecord` does).  :meth:`feed` judges
    a record against the pair, state and window rules, then applies it;
    :meth:`finish` adds the end-of-stream bus and cadence checks;
    :meth:`earliest` asks the same state when a command may next issue.
    """

    def __init__(self, table: RuleTable):
        self.table = table
        self._by_curr: dict[str, list[tuple[PairRule, str]]] = {}
        for rule in table.pair_rules:
            self._by_curr.setdefault(rule.curr, []).append((rule, rule.rule_id))
        self._bus: dict[tuple[str, str], BusRule] = {
            (rule.prev, rule.curr): rule for rule in table.bus_rules
        }
        self.violations: list[Violation] = []
        # Most recent record of each kind per (scope, key).
        self._last: dict[tuple, object] = {}
        self._open: dict[tuple[int, int], bool] = {}
        self._faw: dict[int, deque] = {}
        #: (burst start, record), kept in start order.
        self._bursts: list[tuple[int, object]] = []
        self._cadence_first: dict[tuple[str, object], int] = {}
        self._cadence_last: dict[tuple[str, object], int] = {}
        #: Held records (:data:`AHEAD_TAGS`), in (cycle, arrival) order.
        self._ahead: list = []
        #: This state with every held record applied (see :meth:`earliest`).
        self._settled: TimingOracle | None = None
        self._end: int | None = None

    # ------------------------------------------------------------------
    def _scope_key(self, rank: int, bank: int | None, scope: str):
        if scope == SAME_RANK:
            return rank
        if bank is None:
            return None
        if scope == SAME_BANK:
            return (rank, bank)
        return (rank, bank // self.table.banks_per_bankgroup)

    def feed(self, rec) -> None:
        """Judge and apply one record (records come in issue order).  One
        tagged in :data:`AHEAD_TAGS` is held until a record at or past its
        cycle arrives, which is where a cycle-sorted replay applies it."""
        self._settled = None
        if rec.tag in AHEAD_TAGS:
            bisect.insort(self._ahead, rec, key=_CYCLE)
        else:
            self._catch_up(rec.cycle)
            self._apply(rec)

    def _catch_up(self, cycle: int) -> None:
        ahead = self._ahead
        while ahead and ahead[0].cycle <= cycle:
            self._apply(ahead.pop(0))

    def _apply(self, rec) -> None:
        table = self.table
        violations = self.violations
        last = self._last
        open_banks = self._open
        kind = rec.kind
        # -- pair rules ------------------------------------------------
        for rule, rule_id in self._by_curr.get(kind, ()):
            if rec.tag in rule.exempt_tags:
                continue
            key = self._scope_key(rec.rank, rec.bank, rule.scope)
            if key is None:
                continue
            prev = last.get((rule.prev, rule.scope, key))
            if prev is not None and rec.cycle - prev.cycle < rule.min_delay:
                violations.append(Violation(
                    rule_id, rec.cycle,
                    f"{rule_id} violation: {kind} @{rec.cycle} only "
                    f"{rec.cycle - prev.cycle} < {rule.min_delay} cycles "
                    f"after {rule.prev} @{prev.cycle} "
                    f"(rank {rec.rank}, bank {rec.bank})",
                    prev, rec,
                ))
        # -- state + window rules --------------------------------------
        if kind == "ACT":
            bank_key = (rec.rank, rec.bank)
            if rec.tag == "hira2":
                prev_act = last.get(("ACT", SAME_BANK, bank_key))
                gap = (
                    rec.cycle - prev_act.cycle
                    if prev_act is not None else None
                )
                if gap != table.hira_gap:
                    violations.append(Violation(
                        f"hira-gap(ACT)@{SAME_BANK}", rec.cycle,
                        f"hira-gap violation: engineered second ACT gap "
                        f"{gap} != t1+t2 ({table.hira_gap}) on bank "
                        f"{bank_key}",
                        prev_act, rec,
                    ))
            if open_banks.get(bank_key, False):
                violations.append(Violation(
                    f"open-bank(ACT)@{SAME_BANK}", rec.cycle,
                    f"ACT @{rec.cycle} to already-open bank {bank_key}",
                    last.get(("ACT", SAME_BANK, bank_key)), rec,
                ))
            open_banks[bank_key] = True
            window = self._faw.setdefault(rec.rank, deque())
            rule = table.window_rules[0]
            if (
                len(window) >= rule.max_count
                and rec.cycle - window[0] < rule.window
            ):
                violations.append(Violation(
                    rule.rule_id, rec.cycle,
                    f"{rule.rule_id} violation: {rule.max_count + 1} ACTs "
                    f"within {rec.cycle - window[0]} < {rule.window} "
                    f"cycles on rank {rec.rank}",
                    None, rec,
                ))
            window.append(rec.cycle)
            if len(window) > rule.max_count:
                window.popleft()
        elif kind == "PRE":
            open_banks[(rec.rank, rec.bank)] = False
        elif kind in ("RD", "WR"):
            bank_key = (rec.rank, rec.bank)
            if not open_banks.get(bank_key, False):
                violations.append(Violation(
                    f"closed-bank({kind})@{SAME_BANK}", rec.cycle,
                    f"{kind} @{rec.cycle} to bank {bank_key} with no "
                    f"open row",
                    None, rec,
                ))
            start = rec.cycle + self._burst_offset(kind)
            bisect.insort(self._bursts, (start, rec), key=_START)
        elif kind == "REFSB":
            bank_key = (rec.rank, rec.bank)
            if open_banks.get(bank_key, False):
                violations.append(Violation(
                    f"refsb-open-bank(REFSB)@{SAME_BANK}", rec.cycle,
                    f"REFSB @{rec.cycle} to open bank {bank_key}",
                    last.get(("ACT", SAME_BANK, bank_key)), rec,
                ))
        elif kind == "REF":
            still_open = [
                key for key, is_open in open_banks.items()
                if key[0] == rec.rank and is_open
            ]
            if still_open:
                violations.append(Violation(
                    f"ref-open-bank(REF)@{SAME_RANK}", rec.cycle,
                    f"REF @{rec.cycle} to rank {rec.rank} with open "
                    f"banks {still_open}",
                    None, rec,
                ))
            for key in open_banks:
                if key[0] == rec.rank:
                    open_banks[key] = False
        # -- cadence max-gap rules -------------------------------------
        for rule in table.cadence_rules:
            if rule.kind != kind:
                continue
            key = self._scope_key(rec.rank, rec.bank, rule.scope)
            ck = (rule.rule_id, key)
            prev_cycle = self._cadence_last.get(ck)
            if prev_cycle is not None and rec.cycle - prev_cycle > rule.max_gap:
                violations.append(Violation(
                    rule.rule_id, rec.cycle,
                    f"{rule.rule_id} violation: {rec.cycle - prev_cycle} "
                    f"cycles since the previous {kind} "
                    f"(limit {rule.max_gap}) at {rule.scope} key {key}",
                    None, rec,
                ))
            self._cadence_first.setdefault(ck, rec.cycle)
            self._cadence_last[ck] = rec.cycle
        # -- bookkeeping -----------------------------------------------
        for scope in (SAME_BANK, SAME_BANK_GROUP, SAME_RANK):
            key = self._scope_key(rec.rank, rec.bank, scope)
            if key is not None:
                last[(kind, scope, key)] = rec
        self._end = rec.cycle

    def _burst_offset(self, kind: str) -> int:
        return self.table.tcwl if kind == "WR" else self.table.tcl

    def finish(self) -> list[Violation]:
        """Apply every held record; return all violations so far plus the
        end-of-stream checks (bus pairs in burst-start order, cadence
        endpoints)."""
        self._catch_up(_FAR_FUTURE)
        table = self.table
        violations = list(self.violations)
        bursts = self._bursts
        for (start0, rec0), (start1, rec1) in zip(bursts, bursts[1:]):
            rule = self._bus.get((rec0.kind, rec1.kind))
            if rule is not None and start1 - start0 < rule.min_delay:
                violations.append(Violation(
                    rule.rule_id, rec1.cycle,
                    f"{rule.rule_id} violation: {rec1.kind} burst starts "
                    f"@{start1}, only {start1 - start0} < {rule.min_delay} "
                    f"cycles after the {rec0.kind} burst start @{start0} "
                    f"(banks ({rec0.rank},{rec0.bank}) -> "
                    f"({rec1.rank},{rec1.bank}))",
                    rec0, rec1,
                ))
        end = self._end
        if end is None:
            return violations
        for rule in table.cadence_rules:
            if not rule.check_endpoints:
                continue
            if rule.scope == SAME_RANK:
                keys = list(range(table.n_ranks))
            else:
                keys = [
                    (rank, bank)
                    for rank in range(table.n_ranks)
                    for bank in range(table.banks_per_rank)
                ]
            for key in keys:
                ck = (rule.rule_id, key)
                first = self._cadence_first.get(ck)
                if first is None:
                    if end > rule.max_gap:
                        violations.append(Violation(
                            rule.rule_id, end,
                            f"{rule.rule_id} violation: no {rule.kind} "
                            f"issued in {end} cycles at {rule.scope} "
                            f"key {key} (limit {rule.max_gap})",
                        ))
                    continue
                if first > rule.max_gap:
                    violations.append(Violation(
                        rule.rule_id, first,
                        f"{rule.rule_id} violation: first {rule.kind} "
                        f"only at {first} at {rule.scope} key {key} "
                        f"(limit {rule.max_gap})",
                    ))
                gap = end - self._cadence_last[ck]
                if gap > rule.max_gap:
                    violations.append(Violation(
                        rule.rule_id, end,
                        f"{rule.rule_id} violation: no {rule.kind} in "
                        f"the last {gap} cycles at {rule.scope} key "
                        f"{key} (limit {rule.max_gap})",
                    ))
        return violations

    def fork(self) -> "TimingOracle":
        """An independent copy of this replay state, for trial feeds."""
        twin = copy.copy(self)
        for name in (
            "violations", "_last", "_open", "_bursts", "_cadence_first",
            "_cadence_last", "_ahead",
        ):
            setattr(twin, name, copy.copy(getattr(self, name)))
        twin._faw = {rank: deque(window) for rank, window in self._faw.items()}
        return twin

    # ------------------------------------------------------------------
    def earliest(self, kind: str, rank: int, bank: int) -> tuple[int, str | None]:
        """The earliest cycle a ``kind`` command to ``(rank, bank)`` adds no
        pair, window or data-bus violation, and the binding rule's id
        (ties go to the earlier rule; ``(_FAR_PAST, None)`` if none
        binds).  Held records count: only their cycle has not come."""
        if self._ahead and self._settled is None:
            self._settled = self.fork()
            self._settled._catch_up(_FAR_FUTURE)
        state = self._settled if self._ahead else self
        bounds = []
        for rule, rule_id in self._by_curr.get(kind, ()):
            key = self._scope_key(rank, bank, rule.scope)
            prev = state._last.get((rule.prev, rule.scope, key))
            if prev is not None:
                bounds.append((prev.cycle + rule.min_delay, rule_id))
        if kind == "ACT":
            rule = self.table.window_rules[0]
            window = state._faw.get(rank, ())
            if len(window) >= rule.max_count:
                bounds.append((window[0] + rule.window, rule.rule_id))
        elif kind in ("RD", "WR") and state._bursts:
            start, prev = state._bursts[-1]
            rule = self._bus.get((prev.kind, kind))
            if rule is not None:
                start += rule.min_delay - self._burst_offset(kind)
                bounds.append((start, rule.rule_id))
        return max(bounds, key=itemgetter(0), default=(_FAR_PAST, None))

    # ------------------------------------------------------------------
    def check(self, records) -> list[Violation]:
        """Every rule violation in the stream, in replay order: the
        records replayed in ``(cycle, arrival)`` order through a fresh
        state (this instance's own state is untouched)."""
        replay = TimingOracle(self.table)
        for rec in sorted(records, key=_CYCLE):
            replay.feed(rec)
        return replay.finish()

    def check_messages(self, records) -> list[str]:
        """The violations as strings (one per violation)."""
        return [str(v) for v in self.check(records)]


def oracle_for_config(config) -> TimingOracle:
    """Build the oracle for a ``SystemConfig``-shaped object.

    Duck-typed on purpose: the oracle must not import anything from the
    controller stack, so this accepts any object carrying ``timing``,
    ``geometry`` (with ``banks_per_bankgroup`` / ``banks_per_rank``),
    ``ranks_per_channel``, ``refresh_mode`` and ``refresh_granularity``.
    """
    geometry = config.geometry
    table = build_rule_table(
        config.timing,
        banks_per_bankgroup=geometry.banks_per_bankgroup,
        banks_per_rank=geometry.banks_per_rank,
        n_ranks=config.ranks_per_channel,
        refresh_mode=config.refresh_mode,
        refresh_granularity=config.refresh_granularity,
    )
    return TimingOracle(table)


def table_for_log(payload: dict) -> RuleTable:
    """Rebuild a rule table from an exported audit log (see
    :meth:`repro.sim.audit.CommandAuditor.export_log`)."""
    return build_rule_table_cycles(
        **payload["timing_cycles"],
        **payload["geometry"],
        refresh_mode=payload["refresh_mode"],
        refresh_granularity=payload["refresh_granularity"],
    )
