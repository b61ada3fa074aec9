"""Deterministic cycle-stamped simulation tracer (Chrome trace export).

A :class:`SimTracer` attaches to one :class:`MemoryController` (mirroring
:class:`repro.sim.audit.CommandAuditor`: construction sets ``mc.tracer``)
and records three event families, all stamped with the *simulated cycle*
— never wall-clock time — so armed traces are bit-identical across
re-runs and across execution backends:

- **commands**: every issue primitive (ACT/PRE/RD/WR/REF/REFSB, HiRA
  pairings, solo refreshes) via hooks with the auditor's signatures;
- **refresh decisions**: postpone, pull-forward, ride, pair, sb-promote,
  reported by the refresh engines;
- **stalls**: when a visited cycle's schedule pass issues nothing while
  demand is queued, the tracer attributes the stall to the binding gate
  (command bus, data bus, tRTW/tWTR turnaround, tRCD/tFAW/tRRD, refresh
  drain/busy windows, row keep-alive) by re-deriving the scheduler's
  legality checks — read-only: arming a tracer never changes scheduling.

Raw events live in a bounded ring buffer (oldest dropped first); the
aggregate counters (per-command counts, stall reasons, decision counts,
queue-depth histogram, per-bank ACT utilization) are never dropped, so
summary statistics stay exact even when the ring overflows.

Export is Chrome trace-event JSON (load in ``chrome://tracing`` or
Perfetto): instant events with ``ts`` = cycle, ``tid`` = channel.  The
canonical byte encoding (:func:`trace_json`) sorts keys and strips
whitespace, so identical runs export identical bytes.

The controller stays zero-cost when disarmed: every hook site is guarded
by ``if self.tracer is not None`` exactly like the auditor hooks.
"""

from __future__ import annotations

import json
from collections import Counter, deque

#: Stall-attribution vocabulary: the timing gate that blocked the pass.
STALL_REASONS = (
    "cmd-bus",      # command bus slot occupied (bus_next in the future)
    "data-bus",     # data bus busy at the burst's start slot
    "turnaround",   # data bus free, but tRTW/tWTR direction change gap
    "trcd",         # row open, column command waiting on tRCD
    "tfaw",         # four-activation window exhausted
    "trrd",         # ACT-to-ACT spacing (tRRD_S / tRRD_L)
    "bank-timing",  # bank's next_act in the future (tRP/tRC/refresh busy)
    "pre-timing",   # conflicting row open, PRE waiting on tRAS/tRTP/tWR
    "ref-drain",    # rank blocked: draining for an imminent REF
    "refsb-drain",  # bank blocked: draining for an imminent REFsb
    "ref-busy",     # rank unavailable (tRFC/tRFC_sb in flight)
    "row-keepalive",  # conflicting open row kept open for queued hits
    "other",        # no single gate identified (e.g. engine back-off)
)

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

    # ------------------------------------------------------------------
    def _emit(self, cycle: int, name: str, cat: str, args: dict) -> None:
        self._events.append((cycle, name, cat, args))
        self.events_total += 1

    def _command(self, cycle: int, name: str, args: dict) -> None:
        self.command_counts[name] += 1
        mc = self.mc
        self.queue_depth_hist[len(mc.read_q) + len(mc.write_q)] += 1
        self._emit(cycle, name, "cmd", args)

    # ------------------------------------------------------------------
    # Command hooks (auditor signatures; see sim/controller.py call sites)
    # ------------------------------------------------------------------
    def on_act(self, now: int, rank: int, bank: int, row: int) -> None:
        self.bank_acts[(rank, bank)] += 1
        self._command(now, "ACT", {"rank": rank, "bank": bank, "row": row})

    def on_pre(self, now: int, rank: int, bank: int) -> None:
        self._command(now, "PRE", {"rank": rank, "bank": bank})

    def on_ref(self, now: int, rank: int) -> None:
        self._command(now, "REF", {"rank": rank})

    def on_refsb(self, now: int, rank: int, bank: int) -> None:
        self._command(now, "REFSB", {"rank": rank, "bank": bank})

    def on_col(self, now: int, rank: int, bank: int, is_write: bool) -> None:
        name = "WR" if is_write else "RD"
        self._command(now, name, {"rank": rank, "bank": bank})

    def on_solo_refresh(self, now: int, rank: int, bank: int, close: int) -> None:
        self.bank_acts[(rank, bank)] += 1
        self._command(
            now, "SOLO_REF", {"rank": rank, "bank": bank, "close": close}
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
        self.bank_acts[(rank, bank)] += 2
        if close is None:
            self._command(
                now,
                "HIRA_ACT",
                {
                    "rank": rank,
                    "bank": bank,
                    "refresh_row": refresh_row,
                    "target_row": target_row,
                    "eff": eff,
                },
            )
        else:
            self._command(
                now, "HIRA_PAIR", {"rank": rank, "bank": bank, "close": close}
            )

    # ------------------------------------------------------------------
    # Refresh-engine decision hook
    # ------------------------------------------------------------------
    def on_decision(
        self, kind: str, now: int, rank: int, bank: int = -1, value: int = 0
    ) -> None:
        self.decision_counts[kind] += 1
        self._emit(
            now, kind, "decision", {"rank": rank, "bank": bank, "value": value}
        )

    # ------------------------------------------------------------------
    # Stall attribution
    # ------------------------------------------------------------------
    def on_stall(self, now: int) -> None:
        """Called when a cycle's schedule pass issued nothing.

        Re-derives the scheduler's legality checks for every bank head of
        each demand queue (read-only) and records the binding gate with
        the earliest release cycle.  Idle cycles (no demand queued) are
        not stalls and record nothing.  With a tracer armed, ``schedule``
        leaves its ``_progress_at`` memo unset, so the system loop visits
        the controller on every cycle: ``stall_counts`` count stalled
        cycles, not loop visits.  Results stay identical, because the
        loop's outcome never depends on which cycles it visits.
        """
        mc = self.mc
        if not mc.read_q and not mc.write_q:
            return
        if now < mc.bus_next:
            self._stall(now, "cmd-bus", -1, -1, mc.bus_next)
            return
        best = None
        # `_active_queues` mutates the write-drain hysteresis; schedule()
        # already ran it this cycle, so read the flag directly.
        order = mc._writes_first if mc._draining_writes else mc._reads_first
        for queue in order:
            if not queue:
                continue
            found = self._classify_queue(queue, now)
            if found is not None and (best is None or found[0] < best[0]):
                best = found
        if best is None:
            self._stall(now, "other", -1, -1, now + 1)
        else:
            until, reason, rank, bank = best
            self._stall(now, reason, rank, bank, until)

    def _stall(self, now: int, reason: str, rank: int, bank: int, until: int) -> None:
        self.stall_counts[reason] += 1
        self._emit(
            now,
            "stall",
            "stall",
            {"reason": reason, "rank": rank, "bank": bank, "until": until},
        )

    def _classify_queue(self, queue, now: int):
        """Binding gate over the queue's bank heads (the ones the
        scheduler's FCFS pass reads): (until, reason, rank, bank) of the
        earliest-releasing blocked head, or None."""
        mc = self.mc
        is_write_q = queue is mc.write_q
        burst_offset = mc.tcwl_c if is_write_q else mc.tcl_c
        data_free = mc.data_bus_free_at(is_write_q)
        bus_blocked = now + burst_offset < data_free
        best = None
        bank_q = mc._bank_q_write if is_write_q else mc._bank_q_read
        # Oldest head first, so ties go to queue order as in the scheduler.
        for dq in sorted(bank_q.values(), key=lambda dq: dq[0].seq):
            addr = dq[0].addr
            rank, bank_id, row = addr.rank, addr.bank, addr.row
            found = self._classify_candidate(
                queue, rank, bank_id, row, now, bus_blocked, data_free, burst_offset
            )
            if found is not None and (best is None or found[0] < best[0]):
                best = found
        return best

    def _classify_candidate(
        self, queue, rank, bank_id, row, now, bus_blocked, data_free, burst_offset
    ):
        mc = self.mc
        ta = mc._ta
        g = rank * mc.banks_per_rank + bank_id
        if rank in mc.blocked_ranks:
            ready = ta.ref_ready[rank]
            until = ready if ready > now else now + 1
            return (until, "ref-drain", rank, bank_id)
        if (rank, bank_id) in mc.blocked_banks:
            until = max(now + 1, ta.next_act[g], ta.next_refsb[rank])
            return (until, "refsb-drain", rank, bank_id)
        if now < ta.busy_until[rank]:
            return (ta.busy_until[rank], "ref-busy", rank, bank_id)
        open_row = ta.open_row[g]
        if open_row == row:
            if bus_blocked:
                reason = (
                    "data-bus" if now + burst_offset < mc.data_bus_next else "turnaround"
                )
                return (data_free - burst_offset, reason, rank, bank_id)
            if now < ta.next_rdwr[g]:
                return (ta.next_rdwr[g], "trcd", rank, bank_id)
            return None  # issuable row hit: some other gate stalled the pass
        if open_row < 0:
            if now < ta.next_act[g]:
                return (ta.next_act[g], "bank-timing", rank, bank_id)
            if not mc.faw_ok(rank, now):
                return (mc.faw_next(rank), "tfaw", rank, bank_id)
            if not mc.trrd_ok(rank, bank_id, now):
                until = max(ta.next_act_any[rank], mc._group_gate_at(rank, bank_id))
                return (until, "trrd", rank, bank_id)
            return None  # issuable ACT
        # Conflicting open row.
        if now < ta.next_pre[g]:
            return (ta.next_pre[g], "pre-timing", rank, bank_id)
        if mc._row_hit_waiting(queue, rank, bank_id, open_row):
            return (now + 1, "row-keepalive", rank, bank_id)
        return None

    # ------------------------------------------------------------------
    # Run-end + export
    # ------------------------------------------------------------------
    def on_run_end(self, end_cycle: int) -> None:
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
    """Arm one :class:`SimTracer` per controller (cf. ``attach_auditors``)."""
    return [SimTracer(mc, capacity=capacity) for mc in system.controllers]


def validate_chrome_trace(payload: dict) -> list[str]:
    """Schema problems in a trace payload (empty list: valid).

    Checks the Chrome trace-event object-format contract (traceEvents
    list of instant events with integer ``ts``) plus this tracer's own
    guarantees: known categories, stall reasons from the fixed
    vocabulary, ``until`` strictly after the stall cycle, and
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
