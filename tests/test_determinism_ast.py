"""Simulation logic must be bit-reproducible: an AST check over ``src/repro``.

Every backend (serial, local pool, socket workers on other hosts) must
produce bit-identical results, and the result cache keys on content
hashes that assume it.  That guarantee dies quietly if simulation logic
ever consults a wall clock, an unseeded RNG, process-dependent identity
(``id()``, ``hash()`` under ``PYTHONHASHSEED``), or iterates a ``set``
whose order feeds scheduling decisions.  :func:`findings` parses the
source tree and names each such construct as ``path:line: message``.

Scope (:data:`SCOPE_DIRS` + :data:`SCOPE_FILES`): the simulator proper,
the orchestrator modules whose *output* must be deterministic, and the
socket backend's dispatch policy (``orchestrator/backends/dispatch.py``),
which must stay sans-I/O so the chaos suite can replay it in virtual
time: its clock arrives as an argument and its RNG is passed in.
Deliberately out of scope, because wall-clock use there is legitimate
telemetry or I/O and never feeds results: ``perf.py``,
``orchestrator/runner.py`` (elapsed-seconds telemetry; grid assembly is
index-keyed), and the I/O layers around the dispatcher,
``orchestrator/backends/server.py`` (it reads ``time.monotonic()`` and
waits on the inbox until the dispatcher's next deadline) and
``worker.py`` (heartbeats and reconnect backoff).

The set-iteration check allows :data:`INT_KEYED_SETS`: sets keyed by
ints/int-tuples iterate in a reproducible order on CPython because
``PYTHONHASHSEED`` only perturbs ``str``/``bytes`` hashing — and each
allowlisted consumer is order-insensitive anyway (min-scans, or
mutate-and-return-immediately loops).  Iterating any *other* set (or a
future string-keyed one) must go through ``sorted(...)``.  There is no
inline suppression: a finding is fixed, or a set joins the allowlist.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
FIXTURES = Path(__file__).parent / "lint_fixtures"

SCOPE_DIRS = ("sim/", "core/", "dram/", "chip/", "rowhammer/", "workloads/")
SCOPE_FILES = (
    "orchestrator/hashing.py",
    "orchestrator/sweep.py",
    "orchestrator/execute.py",
    "orchestrator/backends/protocol.py",
    "orchestrator/backends/dispatch.py",
    # The sim tracer's exports must be byte-identical across runs and
    # backends; wall-clock telemetry lives in obs/fleet.py, out of scope.
    "obs/tracer.py",
)

WALLCLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "thread_time",
    }
)
DATETIME_CTORS = frozenset({"now", "today", "utcnow"})
FORBIDDEN_MODULES = {
    "random": "use a seeded numpy Generator (np.random.default_rng(seed))",
    "uuid": "uuids are host/time-derived",
    "secrets": "cryptographic randomness is never reproducible",
}
#: ``np.random.X`` attributes that are fine (explicitly seeded machinery).
NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "Philox", "PCG64", "MT19937",
     "BitGenerator"}
)

#: Sets safe to iterate raw: int/int-tuple keyed (PYTHONHASHSEED only
#: perturbs str/bytes on CPython) *and* consumed order-insensitively.
INT_KEYED_SETS = frozenset(
    {
        "blocked_ranks",
        "blocked_banks",
        "_sb_draining",
        "_sb_blocked",
        "_active",
        # Row-hit bank indexes: int-keyed, and consumed via a min-seq
        # reduction over per-bank deque heads — order-insensitive.
        "_hit_read",
        "_hit_write",
    }
)


def _in_scope(rel: str) -> bool:
    return rel in SCOPE_FILES or any(rel.startswith(d) for d in SCOPE_DIRS)


def _dotted(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"] (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _set_attrs(module: ast.Module) -> set[str]:
    """Attribute names assigned a set value anywhere in the module."""
    attrs: set[str] = set()
    for node in ast.walk(module):
        value = None
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.target is not None:
            targets = [node.target]
            ann = node.annotation
            ann_parts = _dotted(ann.value if isinstance(ann, ast.Subscript) else ann)
            if ann_parts and ann_parts[-1] in ("set", "Set", "frozenset"):
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        attrs.add(target.attr)
            value = node.value
        else:
            continue
        is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )
        if not is_set:
            continue
        for target in targets:
            if isinstance(target, ast.Attribute):
                attrs.add(target.attr)
    return attrs


def _check_module(module: ast.Module) -> list[tuple[int, str]]:
    """``(line, message)`` for each finding in one parsed file."""
    found: list[tuple[int, str]] = []

    def add(node, symbol, message):
        found.append((node.lineno, f"{symbol}: {message}"))

    # Track local aliases of the time/datetime/os/numpy modules.
    aliases = {"time": "time", "datetime": "datetime", "os": "os"}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in FORBIDDEN_MODULES:
                    add(
                        node,
                        root,
                        f"import of '{root}' in simulation logic: "
                        f"{FORBIDDEN_MODULES[root]}",
                    )
                if root in ("time", "datetime", "os"):
                    aliases[alias.asname or root] = root
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in FORBIDDEN_MODULES:
                add(
                    node,
                    root,
                    f"import from '{root}' in simulation logic: "
                    f"{FORBIDDEN_MODULES[root]}",
                )

    for node in ast.walk(module):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        parts = _dotted(func)
        canon = [aliases.get(parts[0], parts[0])] + parts[1:] if parts else []
        if (
            len(canon) >= 2
            and canon[0] == "time"
            and canon[-1] in WALLCLOCK_TIME_ATTRS
        ):
            add(
                node,
                ".".join(parts),
                "wall-clock read in simulation logic; results must not "
                "depend on real time",
            )
        elif canon and canon[0] == "datetime" and canon[-1] in DATETIME_CTORS:
            add(node, ".".join(parts), "wall-clock date read in simulation logic")
        elif canon[-2:] == ["os", "urandom"] or canon == ["os", "urandom"]:
            add(node, "os.urandom", "os.urandom is unseedable randomness")
        elif isinstance(func, ast.Name) and func.id in ("id", "hash") and node.args:
            add(
                node,
                func.id,
                f"builtin {func.id}() is process-dependent "
                "(PYTHONHASHSEED / allocator addresses); never let it feed "
                "ordering or results",
            )
        elif len(canon) >= 2 and canon[-2] == "random" and canon[0] in (
            "np",
            "numpy",
        ):
            attr = canon[-1]
            if attr not in NP_RANDOM_OK:
                add(
                    node,
                    ".".join(parts),
                    "legacy global numpy RNG; use an explicitly seeded "
                    "np.random.default_rng(seed)",
                )
            elif attr == "default_rng" and not node.args and not node.keywords:
                add(
                    node,
                    ".".join(parts),
                    "default_rng() without a seed is entropy-seeded; pass "
                    "an explicit seed",
                )

    set_attrs = _set_attrs(module) - INT_KEYED_SETS
    iter_exprs = [
        node.iter
        for node in ast.walk(module)
        if isinstance(node, (ast.For, ast.comprehension))
    ]
    for iter_expr in iter_exprs:
        if isinstance(iter_expr, ast.Attribute) and iter_expr.attr in set_attrs:
            add(
                iter_expr,
                iter_expr.attr,
                f"iteration over set attribute '{iter_expr.attr}': "
                "set order is hash-dependent for str keys and easy "
                "to destabilize — wrap in sorted(...) or, if the "
                "keys are ints/int-tuples and the consumer is "
                "order-insensitive, add it to INT_KEYED_SETS",
            )
    return sorted(found)


def findings(root: Path) -> list[str]:
    """Every finding in the in-scope ``*.py`` files under ``root``, as
    ``path:line: message`` with ``path`` relative to ``root``."""
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if _in_scope(rel):
            module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            out += [f"{rel}:{line}: {message}" for line, message in _check_module(module)]
    return out


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_src_is_clean():
    assert findings(SRC) == []


def test_bad_fixture_is_flagged():
    found = findings(FIXTURES / "determinism_bad")
    # import random, time.time(), unseeded default_rng(), raw set
    # iteration, id().
    assert [f.split(":")[1] for f in found] == ["3", "14", "17", "21", "24"]
    assert all(f.startswith("sim/clock.py:") for f in found)


def test_good_fixture_is_clean():
    assert findings(FIXTURES / "determinism_good") == []


def test_planted_wallclock_read_is_flagged(tmp_path):
    tree = tmp_path / "repro"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    trace = tree / "sim" / "trace.py"
    trace.write_text(
        trace.read_text(encoding="utf-8")
        + "\n\nimport time\n\n\ndef _wallclock() -> float:\n"
        + "    return time.time()\n",
        encoding="utf-8",
    )
    (finding,) = findings(tree)
    assert finding.startswith("sim/trace.py:")
    assert ": time.time: wall-clock read" in finding


def test_int_keyed_set_may_iterate_raw(tmp_path):
    root = tmp_path / "tree"
    shutil.copytree(FIXTURES / "determinism_good", root)
    _edit(
        root / "sim" / "clock.py",
        "        self.pending_rows = set()\n",
        "        self.pending_rows = set()\n        self.blocked_banks = set()\n",
    )
    _edit(
        root / "sim" / "clock.py",
        "    def order(self):\n",
        "    def blocked(self):\n"
        "        return [bank for bank in self.blocked_banks]\n\n"
        "    def order(self):\n",
    )
    assert findings(root) == []
    # The same raw walk over a set outside INT_KEYED_SETS is a finding.
    _edit(root / "sim" / "clock.py", "sorted(self.pending_rows)", "self.pending_rows")
    (finding,) = findings(root)
    assert "pending_rows" in finding


def test_files_out_of_scope_are_ignored(tmp_path):
    root = tmp_path / "tree"
    (root / "obs").mkdir(parents=True)
    shutil.copy(FIXTURES / "determinism_bad" / "sim" / "clock.py", root / "obs")
    assert findings(root) == []
    (root / "sim").mkdir()
    shutil.move(root / "obs" / "clock.py", root / "sim" / "clock.py")
    assert findings(root)


def test_dispatcher_stays_sans_io(tmp_path):
    import repro.orchestrator.backends.dispatch as dispatch

    target = tmp_path / "tree" / "orchestrator" / "backends" / "dispatch.py"
    target.parent.mkdir(parents=True)
    shutil.copy(dispatch.__file__, target)
    assert findings(tmp_path / "tree") == []
    _edit(
        target,
        "        if self.finished:\n            return out\n",
        "        if self.finished:\n            return out\n"
        "        now = time.monotonic()\n",
    )
    (finding,) = findings(tmp_path / "tree")
    assert finding.startswith("orchestrator/backends/dispatch.py:")
    assert ": time.monotonic: " in finding
