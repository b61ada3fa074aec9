"""Rule ``dirty-flag``: scheduling-state mutations must invalidate the
``schedule()`` memo.

``MemoryController.schedule`` memoizes its next useful cycle in
``_progress_at``, and the system loop skips the controller until then.
The memo's contract is that *every* mutation of scheduling state resets
it (``mark_dirty()`` / ``self._progress_at = 0``).  A forgotten reset is
the repo's nastiest latent-bug class: the simulator stays plausible but
sleeps past cycles at which a dense every-cycle loop would issue,
silently reordering scheduling.  This checker makes the contract
statically enforced over ``sim/controller.py`` plus the refresh engines.

How it works (intra-procedural abstract interpretation + a call-graph
fixpoint):

* **Watched attributes** (:data:`WATCHED`) name the scheduling state, by
  attribute name, independent of receiver — ``bank.open_row`` and
  ``self._preventive`` both count.  Mutations are direct stores
  (``x.attr = ...``, ``x.attr += ...``), container stores/deletes
  (``x[k] = ...``, ``del x[k]``) through a watched attribute or a tainted
  local alias, mutating method calls (``.append()``, ``.pop()``,
  ``heapq.heappush(...)``) on the same, and parameter aliases (any
  non-``self`` parameter is conservatively assumed to alias state).
* **Marks** are ``mark_dirty(...)`` calls and ``x._progress_at = 0``
  stores.
* Each method body is walked **path-sensitively**: branch states carry
  ``(mutated, marked)`` plus the values of boolean-literal locals, so the
  house idiom ``promoted = True ... if promoted: mark_dirty()`` is
  understood exactly.  Loops are joined over {0, 1, 2} executions; within
  a path the mutate/mark *order* is irrelevant (nothing in these methods
  re-reads the memo mid-flight).
* Method calls contribute their callee's fixpoint summary — ``residual``
  (some exit path mutates without marking) taints the caller's path, and
  ``always_marks`` (every exit path marks) clears it.  Summaries are
  merged across classes by method name, which is exactly right for the
  dynamic dispatch through ``self.engine``.
* A **private** method (leading underscore) with a residual path is
  excused when an analyzed method calls it — the obligation propagates to
  the call sites (e.g. ``_record_act`` is covered because every issue
  primitive that calls it marks).  Public methods must discharge the
  obligation themselves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.core import Finding, LintTree

NAME = "dirty-flag"
DESCRIPTION = (
    "every mutation of scheduling state must reset the schedule() memo "
    "on all paths (mark_dirty / self._progress_at = 0)"
)

#: Files holding the controller and the refresh engines.
TARGET_FILES = ("sim/controller.py", "sim/elastic.py", "core/engine.py")

#: Scheduling-state attribute names (receiver-independent).
WATCHED = frozenset(
    {
        # MemoryController
        "bus_next",
        "data_bus_next",
        "_data_bus_last_write",
        "read_q",
        "write_q",
        "blocked_ranks",
        "blocked_banks",
        "_scheduled_closes",
        "_bank_demand",
        # TimingArrays columns
        "open_row",
        "next_act",
        "next_pre",
        "next_rdwr",
        "busy_until",
        "faw",
        "ref_due",
        "ref_ready",
        "next_act_any",
        "act_floor",
        "group_gate",
        "next_refsb",
        # refresh engines
        "_preventive",
        "_sb_due",
        "_sb_heap",
        "_sb_draining",
        "_debt",
        "_committed",
        "_sb_debt",
        "_sb_deferred",
        "_periodic",
        "_gen_heap",
        "_active",
        "_bank_deadline",
        "_sb_blocked",
        "pr",
        "pending",
        "credit",
        "next_gen",
        "sa_ptr",
    }
)

#: Deliberately NOT watched, with the reason each is excluded:
#:   _epoch / _progress_at        — the schedule() wake memo itself:
#:                                  _epoch is bumped alongside every mark
#:                                  and _progress_at stores the memoized
#:                                  bound, so watching them would flag
#:                                  the memo machinery itself;
#:   _struct_dirty / _min_deadline / _sb_forced_min
#:                                — engine-internal memos *over* watched
#:                                  state, settled inside urgent();
#:   _draining_writes             — write-drain hysteresis: changes which
#:                                  queue schedule() tries first, never a
#:                                  wake time;
#:   _row_q_read / _row_q_write /
#:   _hit_read / _hit_write       — scheduler indexes over read_q and
#:                                  write_q, mutated only at marking
#:                                  chokepoints (enqueue / issue /
#:                                  open_row write);
#:   _seq                         — monotonic arrival-stamp counter, only
#:                                  advanced by enqueue (which marks);
#:   stats / completions          — telemetry, not scheduling state.
EXCLUDED = frozenset(
    {
        "_epoch",
        "_progress_at",
        "_struct_dirty",
        "_min_deadline",
        "_sb_forced_min",
        "_draining_writes",
        "_row_q_read",
        "_row_q_write",
        "_hit_read",
        "_hit_write",
        "_seq",
        "stats",
        "completions",
    }
)

#: Constructors/attach run before the controller loop exists; their
#: mutations are by definition pre-memo.
EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "attach"})

#: Method names that mutate their receiver in place.
MUTATOR_CALLS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "discard",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "extend",
        "extendleft",
        "update",
        "insert",
        "setdefault",
        "push",
    }
)

#: ``heapq`` module functions whose first argument is mutated.
HEAPQ_FUNCS = frozenset(
    {"heappush", "heappop", "heappushpop", "heapreplace", "heapify"}
)

#: States kept per branch point before flag tracking is dropped.
_STATE_CAP = 128


# ----------------------------------------------------------------------
# Per-path abstract state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _State:
    mutated: bool
    marked: bool
    flags: frozenset  # of (name, bool) pairs with known values

    def with_flags(self, updates: dict) -> "_State":
        kept = {name: val for name, val in self.flags if name not in updates}
        kept.update(updates)
        return _State(self.mutated, self.marked, frozenset(kept.items()))

    def flag(self, name: str):
        for key, val in self.flags:
            if key == name:
                return val
        return None


@dataclass
class _Summary:
    residual: bool = False  # some exit path mutates without marking
    always_marks: bool = False  # every exit path marks


def _contains_watched(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr in WATCHED
        for sub in ast.walk(node)
    )


def _first_watched_attr(node: ast.AST) -> str:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in WATCHED:
            return sub.attr
    return "?"


class _MethodAnalyzer:
    """Path-sensitive walk of one method body."""

    def __init__(self, func, summaries: dict[str, _Summary]):
        self.func = func
        self.summaries = summaries
        self.flag_names = self._boolean_flags(func)
        self.tainted = self._taint(func)
        self.exit_states: set[_State] = set()
        self.sites: list[tuple[int, str]] = []  # (line, attr) mutation sites
        self.calls: set[str] = set()

    # -- pre-passes -----------------------------------------------------
    @staticmethod
    def _boolean_flags(func) -> set[str]:
        """Locals assigned *only* literal booleans (trackable flags)."""
        candidates: dict[str, bool] = {}
        for node in ast.walk(func):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                ok = isinstance(node.value, ast.Constant) and isinstance(
                    node.value.value, bool
                )
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
                ok = False
            elif isinstance(node, (ast.For, ast.comprehension)):
                targets = [node.target]
                ok = False
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        prev = candidates.get(sub.id, True)
                        candidates[sub.id] = prev and ok
        return {name for name, is_flag in candidates.items() if is_flag}

    def _taint(self, func) -> set[str]:
        """Locals that may alias watched containers (fixpoint over
        assignments, order-insensitively — an over-approximation)."""
        args = func.args
        tainted = {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        tainted.discard("self")
        for _ in range(3):
            grew = False
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    value, targets = node.value, node.targets
                elif isinstance(node, ast.For):
                    value, targets = node.iter, [node.target]
                elif isinstance(node, ast.comprehension):
                    value, targets = node.iter, [node.target]
                else:
                    continue
                if not (
                    _contains_watched(value)
                    or any(
                        isinstance(sub, ast.Name) and sub.id in tainted
                        for sub in ast.walk(value)
                    )
                ):
                    continue
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) and sub.id not in tainted:
                            tainted.add(sub.id)
                            grew = True
            if not grew:
                break
        return tainted

    def _is_tainted(self, node: ast.AST) -> bool:
        return _contains_watched(node) or any(
            isinstance(sub, ast.Name) and sub.id in self.tainted
            for sub in ast.walk(node)
        )

    # -- statement effects ----------------------------------------------
    def _effects(self, node: ast.AST):
        """(mutation sites, marks?) of one statement/expression subtree,
        not descending into nested function definitions."""
        sites: list[tuple[int, str]] = []
        marked = False
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(sub, ast.Assign):
                if (
                    isinstance(sub.value, ast.Constant)
                    and sub.value.value == 0
                    and any(
                        isinstance(t, ast.Attribute) and t.attr == "_progress_at"
                        for t in sub.targets
                    )
                ):
                    marked = True
                for target in sub.targets:
                    sites.extend(self._store_sites(target))
            elif isinstance(sub, ast.AugAssign):
                sites.extend(self._store_sites(sub.target))
            elif isinstance(sub, ast.Delete):
                for target in sub.targets:
                    sites.extend(self._store_sites(target))
            elif isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Attribute):
                    if func.attr == "mark_dirty":
                        marked = True
                    elif func.attr in MUTATOR_CALLS and self._is_tainted(
                        func.value
                    ):
                        sites.append(
                            (sub.lineno, _first_watched_attr(func.value))
                        )
                    elif (
                        func.attr in HEAPQ_FUNCS
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "heapq"
                        and sub.args
                        and self._is_tainted(sub.args[0])
                    ):
                        sites.append(
                            (sub.lineno, _first_watched_attr(sub.args[0]))
                        )
                    self.calls.add(func.attr)
                elif isinstance(func, ast.Name):
                    self.calls.add(func.id)
        return sites, marked

    def _store_sites(self, target: ast.AST) -> list[tuple[int, str]]:
        sites = []
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                sites.extend(self._store_sites(element))
        elif isinstance(target, ast.Attribute):
            if target.attr in WATCHED:
                sites.append((target.lineno, target.attr))
        elif isinstance(target, ast.Subscript):
            if self._is_tainted(target.value):
                sites.append((target.lineno, _first_watched_attr(target.value)))
        return sites

    def _apply(self, node: ast.AST, states: set[_State]) -> set[_State]:
        sites, marked = self._effects(node)
        call_mutates = False
        call_marks = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = None
                if isinstance(sub.func, ast.Attribute):
                    name = sub.func.attr
                elif isinstance(sub.func, ast.Name):
                    name = sub.func.id
                summary = self.summaries.get(name)
                if summary is not None:
                    call_mutates = call_mutates or summary.residual
                    call_marks = call_marks or summary.always_marks
        if sites:
            self.sites.extend(sites)
        mutated = bool(sites) or call_mutates
        mark = marked or call_marks
        if not mutated and not mark:
            return states
        return {
            _State(s.mutated or mutated, s.marked or mark, s.flags)
            for s in states
        }

    # -- control flow ---------------------------------------------------
    def run(self):
        initial = {_State(False, False, frozenset())}
        fallthrough = self._walk(self.func.body, initial)
        self.exit_states |= fallthrough
        residual = any(s.mutated and not s.marked for s in self.exit_states)
        always = bool(self.exit_states) and all(
            s.marked for s in self.exit_states
        )
        return residual, always

    def _cap(self, states: set[_State]) -> set[_State]:
        if len(states) <= _STATE_CAP:
            return states
        return {
            _State(s.mutated, s.marked, frozenset()) for s in states
        }

    def _walk(self, body, states: set[_State]) -> set[_State]:
        for stmt in body:
            if not states:
                return states
            states = self._cap(states)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.Return, ast.Raise)):
                self.exit_states |= self._apply(stmt, states)
                return set()
            if isinstance(stmt, ast.Assign):
                states = self._apply(stmt, states)
                if (
                    len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id in self.flag_names
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, bool)
                ):
                    name, val = stmt.targets[0].id, stmt.value.value
                    states = {s.with_flags({name: val}) for s in states}
                continue
            if isinstance(stmt, ast.If):
                states = self._apply(stmt.test, states)
                then_in, else_in = self._split_on_flag(stmt.test, states)
                then_out = self._walk(stmt.body, then_in)
                else_out = self._walk(stmt.orelse, else_in)
                states = then_out | else_out
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
                states = self._apply(header, states)
                joined = set(states)
                current = set(states)
                for _ in range(2):
                    out = self._walk(stmt.body, current)
                    new = (out | self._apply(header, out)) - joined
                    if not new:
                        break
                    joined |= new
                    current = set(joined)
                states = self._walk(stmt.orelse, joined) if stmt.orelse else joined
                continue
            if isinstance(stmt, ast.Try):
                body_out = self._walk(stmt.body, states)
                handler_in = states | body_out
                outs = body_out
                for handler in stmt.handlers:
                    outs |= self._walk(handler.body, handler_in)
                if stmt.orelse:
                    outs |= self._walk(stmt.orelse, body_out)
                if stmt.finalbody:
                    outs = self._walk(stmt.finalbody, outs)
                states = outs
                continue
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    states = self._apply(item.context_expr, states)
                states = self._walk(stmt.body, states)
                continue
            if isinstance(stmt, (ast.Break, ast.Continue)):
                # Joined loop states already cover early exits (the loop
                # result is the union over 0/1/2 executions).
                return states
            states = self._apply(stmt, states)
        return states

    def _split_on_flag(self, test: ast.AST, states: set[_State]):
        name, truthy = None, True
        if isinstance(test, ast.Name):
            name = test.id
        elif (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)
        ):
            name, truthy = test.operand.id, False
        if name is None or name not in self.flag_names:
            return set(states), set(states)
        then_in = {
            s.with_flags({name: truthy})
            for s in states
            if s.flag(name) in (None, truthy)
        }
        else_in = {
            s.with_flags({name: not truthy})
            for s in states
            if s.flag(name) in (None, not truthy)
        }
        return then_in, else_in


# ----------------------------------------------------------------------
# Checker entry point
# ----------------------------------------------------------------------
def _collect_methods(tree: LintTree):
    """All class methods in the target files: (path, class, funcdef)."""
    methods = []
    for rel in TARGET_FILES:
        src = tree.get(rel)
        if src is None:
            continue
        for node in src.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods.append((rel, node.name, item))
    return methods


def check(tree: LintTree) -> list[Finding]:
    methods = _collect_methods(tree)
    analyzed = [
        m for m in methods if m[2].name not in EXEMPT_METHODS
    ]
    names = {func.name for _, _, func in analyzed}
    summaries: dict[str, _Summary] = {name: _Summary() for name in names}

    results: dict[tuple[str, str, str], tuple] = {}
    callers: dict[str, set[str]] = {name: set() for name in names}
    for _ in range(len(names) + 4):
        changed = False
        merged: dict[str, _Summary] = {
            name: _Summary(residual=False, always_marks=True) for name in names
        }
        for rel, cls, func in analyzed:
            analyzer = _MethodAnalyzer(func, summaries)
            residual, always = analyzer.run()
            results[(rel, cls, func.name)] = (residual, analyzer)
            target = merged[func.name]
            target.residual = target.residual or residual
            target.always_marks = target.always_marks and always
            for callee in analyzer.calls:
                if callee in callers and callee != func.name:
                    callers[callee].add(func.name)
        for name in names:
            new = merged[name]
            old = summaries[name]
            if (new.residual, new.always_marks) != (
                old.residual,
                old.always_marks,
            ):
                summaries[name] = new
                changed = True
        if not changed:
            break

    findings = []
    for (rel, cls, name), (residual, analyzer) in sorted(results.items()):
        if not residual:
            continue
        if name.startswith("_") and callers.get(name):
            # Private helper with analyzed callers: the marking obligation
            # propagates to the call sites, which are checked above.
            continue
        if analyzer.sites:
            line, attr = analyzer.sites[0]
            detail = f"mutates scheduling state ('{attr}', line {line})"
        else:
            line = analyzer.func.lineno
            detail = "reaches scheduling-state mutations through calls"
        findings.append(
            Finding(
                rule=NAME,
                path=rel,
                line=line,
                symbol=f"{cls}.{name}",
                message=(
                    f"{detail} on a path that never resets the schedule() "
                    "memo (mark_dirty() / self._progress_at = 0)"
                ),
            )
        )
    return findings
