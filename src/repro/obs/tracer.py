"""Deterministic cycle-stamped simulation tracer (Chrome trace export).

A :class:`SimTracer` attaches to one :class:`MemoryController` (setting
``mc.tracer``) and records three event families, all stamped with the
*simulated cycle* — never wall-clock time — so armed traces are
bit-identical across re-runs and across execution backends:

- **commands**: one per issue primitive, read from the controller's
  :class:`repro.sim.audit.CommandAuditor` (attached if none is armed);
  ``SOLO_REF``/``HIRA_ACT``/``HIRA_PAIR`` are named from record tags;
- **refresh decisions**: postpone, pull-forward, ride, pair, sb-promote,
  reported by the refresh engines through ``mc.tracer``;
- **stalls**: when a visited cycle's schedule pass issues nothing while
  demand is queued, the timing oracle (fed the same records) says when
  each bank head's next command may issue; the stall names the binding
  rule's id, one of :data:`POLICY_REASONS`, or :data:`UNBOUND`.
  Read-only: arming a tracer never changes scheduling.

A traced run skips cycles exactly as an untraced one does: the event
loop wakes a controller at its ``schedule`` memo, armed or not.  The
export still holds one stall per stalled cycle, as a dense every-cycle
loop would record them: the skipped cycles are charged from the head
gates taken at the last stalled visit (:meth:`SimTracer.flush`).

Raw events live in a bounded ring buffer (oldest dropped first); the
aggregate counters (per-command counts, stall reasons, decision counts,
queue-depth histogram, per-bank ACT utilization) are never dropped, so
summary statistics stay exact even when the ring overflows.

Export is Chrome trace-event JSON (load in ``chrome://tracing`` or
Perfetto): instant events with ``ts`` = cycle, ``tid`` = channel.  The
canonical byte encoding (:func:`trace_json`) sorts keys and strips
whitespace, so identical runs export identical bytes.

The controller stays zero-cost when disarmed: its issue primitives test
one hook field, ``self.auditor``, and the decision, stall and
deferred-close sites test ``self.tracer``.
"""

from __future__ import annotations

import json
from collections import Counter, deque

from repro.sim.audit import CommandAuditor
from repro.sim.config import SystemConfig
from repro.sim.oracle import oracle_for_config

#: Stall reasons that come from the scheduler, not a timing rule: the
#: command bus, the REF/REFsb drains and the open-row keep-alive.
POLICY_REASONS = ("cmd-bus", "ref-drain", "refsb-drain", "row-keepalive")
#: A stall nothing explains: the scheduler waited longer than the rules
#: require.
UNBOUND = "unbound"
_TABLE = oracle_for_config(SystemConfig()).table
#: The rule ids ``earliest`` can name (they do not depend on the timing
#: values or the refresh mode).
TIMING_REASONS = tuple(
    rule.rule_id
    for rule in (*_TABLE.pair_rules, *_TABLE.window_rules, *_TABLE.bus_rules)
)
STALL_REASONS = (*POLICY_REASONS, UNBOUND, *TIMING_REASONS)

#: Decision vocabulary reported by the refresh engines.
DECISION_KINDS = ("postpone", "pull-forward", "ride", "pair", "sb-promote")

_CATEGORIES = ("cmd", "decision", "stall")


class SimTracer:
    """Ring-buffered deterministic event recorder for one controller."""

    def __init__(self, mc, capacity: int = 65536) -> None:
        self.mc = mc
        mc.tracer = self
        self.channel = mc.channel_id
        self.capacity = capacity
        #: Ring of (cycle, name, category, args) tuples, oldest dropped.
        self._events: deque = deque(maxlen=capacity)
        self.events_total = 0
        self.command_counts: Counter = Counter()
        self.stall_counts: Counter = Counter()
        self.decision_counts: Counter = Counter()
        #: Total queue depth (read + write) sampled at each command issue.
        self.queue_depth_hist: Counter = Counter()
        #: ACT commands per (rank, bank) — the bank-utilization summary.
        self.bank_acts: Counter = Counter()
        self.end_cycle = 0
        #: The head gates taken at the last stalled visit, and the first
        #: cycle after it that no stall has been charged to yet (None: no
        #: skipped span is pending; see :meth:`flush`).
        self._heads: list | None = None
        self._pending_from = 0
        #: ``(mc._epoch, heads)`` of the last stalled visit that asked the
        #: oracle, dropped when a record is fed (see :meth:`on_stall`).
        self._gates: tuple | None = None
        #: The oracle's replay of the command stream, asked about stalls.
        self.oracle = oracle_for_config(mc.config)
        self.auditor = mc.auditor or CommandAuditor(mc)
        for rec in self.auditor.records:
            self.oracle.feed(rec)
        self.auditor.subscribers.append(self._on_records)

    # ------------------------------------------------------------------
    def _emit(self, cycle: int, name: str, cat: str, args: dict) -> None:
        self._events.append((cycle, name, cat, args))
        self.events_total += 1

    def _on_records(self, records: tuple) -> None:
        """One issue primitive's records: feed the oracle and emit one
        command event, named from the records' tags."""
        first, last = records[0], records[-1]
        self.flush(first.cycle)
        args = {"rank": first.rank}
        if first.bank is not None:
            args["bank"] = first.bank
        if last.tag == "hira2":
            name = "HIRA_ACT"
            args.update(refresh_row=first.row, target_row=last.row, eff=last.cycle)
        elif last.tag == "close":
            name = "HIRA_PAIR" if records[-2].tag == "hira2" else "SOLO_REF"
            args["close"] = last.cycle
        else:
            name = first.kind
            if name == "ACT":
                args["row"] = first.row
        self._gates = None
        for rec in records:
            self.oracle.feed(rec)
            if rec.kind == "ACT":
                self.bank_acts[(rec.rank, rec.bank)] += 1
        self.command_counts[name] += 1
        mc = self.mc
        self.queue_depth_hist[len(mc.read_q) + len(mc.write_q)] += 1
        self._emit(first.cycle, name, "cmd", args)

    # ------------------------------------------------------------------
    # Refresh-engine decision hook
    # ------------------------------------------------------------------
    def on_decision(
        self, kind: str, now: int, rank: int, bank: int = -1, value: int = 0
    ) -> None:
        self.flush(now)
        self.decision_counts[kind] += 1
        self._emit(
            now, kind, "decision", {"rank": rank, "bank": bank, "value": value}
        )

    # ------------------------------------------------------------------
    # Stall attribution
    # ------------------------------------------------------------------
    def on_stall(self, now: int) -> None:
        """Called when a visit's schedule pass issued nothing.

        Records the reason of the bank head that releases first (ties go
        to the older head); idle cycles (no demand queued) record
        nothing.  The loop then skips the controller until its
        ``_progress_at``.  A dense loop would stall on each skipped cycle
        with the state this visit leaves: by the memo contract a skipped
        call issues and mutates nothing, and the oracle moves only when a
        record is fed.  So each head's gate is taken once here, and
        :meth:`flush` charges the skipped cycles at the next entry point.
        The same argument lets a visit reuse the previous one's head
        gates when no record was fed and ``mc._epoch`` has not moved
        since: queues, bank state and the oracle are then all unchanged.
        """
        self.flush(now)
        mc = self.mc
        if not mc.read_q and not mc.write_q:
            return
        if now < mc.bus_next:
            heads = [(mc.bus_next, "cmd-bus", None, -1, -1)]
        elif self._gates is not None and self._gates[0] == mc._epoch:
            heads = self._gates[1]
        else:
            heads = []
            # `_active_queues` mutates the write-drain hysteresis; schedule()
            # already ran it this cycle, so read the flag directly.
            order = mc._writes_first if mc._draining_writes else mc._reads_first
            for queue in order:
                if not queue:
                    continue
                is_write = queue is mc.write_q
                bank_q = mc._bank_q_write if is_write else mc._bank_q_read
                hit = mc._hit_write if is_write else mc._hit_read
                # Oldest head first, so ties go to queue order as in the
                # scheduler.
                for dq in sorted(bank_q.values(), key=lambda dq: dq[0].seq):
                    heads.append(self._head_gate(dq[0], is_write, hit))
            self._gates = (mc._epoch, heads)
        self._stall(now, *self._first_release(heads, now))
        self._heads = heads
        self._pending_from = now + 1

    def flush(self, end: int) -> None:
        """Charge the cycles the loop skipped since the last stalled
        visit, up to ``end`` (exclusive), one stall each.

        Every entry point calls it first: a stall, an issued command's
        records, an engine decision, the deferred-close pop and run end.
        A head's wait is ``until`` while ``until`` is ahead, else the
        next cycle (its fallback reason) or nothing, so the first release
        can change only at a head's ``until`` or the cycle before it
        (where a ``until`` ties the next cycle); the span is split there.
        """
        heads = self._heads
        if heads is None:
            return
        self._heads = None
        cycle = self._pending_from
        while cycle < end:
            stop = end
            for until, *__ in heads:
                if until > cycle:
                    split = until - 1 if until - 1 > cycle else until
                    if split < stop:
                        stop = split
            until, reason, rank, bank = self._first_release(heads, cycle)
            # A fallback (or unbound) winner waits one cycle at a time; a
            # ``until`` that ties the next cycle ends a one-cycle segment.
            moving = until == cycle + 1
            for c in range(cycle, stop):
                self._stall(c, c + 1 if moving else until, reason, rank, bank)
            cycle = stop

    @staticmethod
    def _first_release(heads: list, now: int) -> tuple:
        """(until, reason, rank, bank) of the head that releases first
        at ``now`` (ties go to the earlier head), or ``unbound``."""
        best = None
        for until, rule, fallback, rank, bank in heads:
            if until > now:
                found = (until, rule, rank, bank)
            elif fallback is not None:
                found = (now + 1, fallback, rank, bank)
            else:
                continue
            if best is None or found[0] < best[0]:
                best = found
        return best or (now + 1, UNBOUND, -1, -1)

    def _stall(self, now: int, until: int, reason: str, rank: int, bank: int) -> None:
        self.stall_counts[reason] += 1
        args = {"reason": reason, "rank": rank, "bank": bank, "until": until}
        self._emit(now, "stall", "stall", args)

    def _head_gate(self, head, is_write: bool, hit: set) -> tuple:
        """(until, rule, fallback, rank, bank) for one bank head.

        The head cannot issue before ``until``, for ``rule``; at or past
        it, it waits on ``fallback`` for one more cycle (None: nothing
        holds it).  The head's next command follows from the bank's open
        row: RD/WR to it, ACT to a closed bank, else PRE."""
        mc = self.mc
        ta = mc._ta
        rank, g = head.rank, head.gbank
        bank = g - rank * mc.banks_per_rank
        if rank in mc.blocked_ranks:
            return (ta.ref_ready[rank], "ref-drain", "ref-drain", rank, bank)
        if (rank, bank) in mc.blocked_banks:
            until = max(ta.next_act[g], ta.next_refsb[rank])
            return (until, "refsb-drain", "refsb-drain", rank, bank)
        open_row = ta.open_row[g]
        if open_row == head.row:
            kind = "WR" if is_write else "RD"
        elif open_row < 0:
            kind = "ACT"
        else:
            kind = "PRE"
        until, rule = self.oracle.earliest(kind, rank, bank)
        keepalive = "row-keepalive" if kind == "PRE" and g in hit else None
        return (until, rule, keepalive, rank, bank)

    # ------------------------------------------------------------------
    # Run-end + export
    # ------------------------------------------------------------------
    def on_run_end(self, end_cycle: int, last_cycle: int) -> None:
        """``last_cycle`` is the loop's last visited cycle: the skipped
        cycles up to it are charged too."""
        self.flush(last_cycle + 1)
        self.end_cycle = end_cycle

    @property
    def dropped(self) -> int:
        return self.events_total - len(self._events)

    def summary(self) -> dict:
        """Aggregate counters (exact even when the ring overflowed)."""
        return {
            "commands": {k: self.command_counts[k] for k in sorted(self.command_counts)},
            "stalls": {k: self.stall_counts[k] for k in sorted(self.stall_counts)},
            "decisions": {
                k: self.decision_counts[k] for k in sorted(self.decision_counts)
            },
            "queue_depth": {
                str(k): self.queue_depth_hist[k]
                for k in sorted(self.queue_depth_hist)
            },
            "bank_acts": {
                f"{rank}:{bank}": self.bank_acts[(rank, bank)]
                for rank, bank in sorted(self.bank_acts)
            },
        }

    def export(self) -> dict:
        """Chrome trace-event JSON payload (plain dict, JSON-able)."""
        events = [
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": cycle,
                "pid": 0,
                "tid": self.channel,
                "s": "t",
                "args": args,
            }
            for cycle, name, cat, args in self._events
        ]
        other = {
            "kind": "repro-sim-trace",
            "channel": self.channel,
            "capacity": self.capacity,
            "events_total": self.events_total,
            "dropped": self.dropped,
            "end_cycle": self.end_cycle,
        }
        other.update(self.summary())
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": other,
        }


def trace_json(payload: dict) -> str:
    """Canonical byte-stable encoding of a trace payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def attach_tracers(system, capacity: int = 65536) -> list[SimTracer]:
    """Arm one :class:`SimTracer` per controller; each subscribes to the
    controller's auditor (cf. ``attach_auditors``)."""
    return [SimTracer(mc, capacity=capacity) for mc in system.controllers]


def validate_chrome_trace(payload: dict) -> list[str]:
    """Schema problems in a trace payload (empty list: valid).

    Checks the Chrome trace-event object-format contract (traceEvents
    list of instant events with integer ``ts``) plus this tracer's own
    guarantees: known categories, stall reasons from
    :data:`STALL_REASONS` (a policy reason, ``unbound`` or a timing rule
    id), ``until`` strictly after the stall cycle, and
    non-decreasing timestamps (events are recorded in cycle order).
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        problems.append("traceEvents missing or not a list")
        events = []
    if not isinstance(payload.get("otherData"), dict):
        problems.append("otherData missing or not an object")
    last_ts = None
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: bad name {name!r}")
        if ev.get("ph") != "i":
            problems.append(f"{where}: ph {ev.get('ph')!r} is not an instant event")
        ts = ev.get("ts")
        if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
            problems.append(f"{where}: ts {ts!r} is not a non-negative integer")
        else:
            if last_ts is not None and ts < last_ts:
                problems.append(f"{where}: ts {ts} decreases (prev {last_ts})")
            last_ts = ts
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int) or isinstance(ev.get(key), bool):
                problems.append(f"{where}: {key} {ev.get(key)!r} is not an integer")
        cat = ev.get("cat")
        if cat not in _CATEGORIES:
            problems.append(f"{where}: unknown category {cat!r}")
        args = ev.get("args")
        if not isinstance(args, dict):
            problems.append(f"{where}: args missing or not an object")
            continue
        if cat == "stall":
            reason = args.get("reason")
            if reason not in STALL_REASONS:
                problems.append(f"{where}: unknown stall reason {reason!r}")
            until = args.get("until")
            if not isinstance(until, int) or (
                isinstance(ts, int) and not isinstance(ts, bool) and until <= ts
            ):
                problems.append(
                    f"{where}: stall until {until!r} not after cycle {ts!r}"
                )
        elif cat == "decision" and name not in DECISION_KINDS:
            problems.append(f"{where}: unknown decision kind {name!r}")
    return problems
