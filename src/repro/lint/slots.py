"""Rule ``slots``: slotted classes stay slotted, hot-path classes get slots.

Two sub-rules:

* **Completeness** — in any class that is *fully* slotted (it declares
  ``__slots__`` or ``@dataclass(slots=True)``, and so do all of its
  resolvable bases), every ``self.x = ...`` store must name a slot
  (declared locally, inherited, or a class-level descriptor such as a
  property).  At runtime a stray store raises ``AttributeError`` only on
  the path that executes it; the lint makes it a parse-time error.  A
  class with an unresolvable or unslotted base keeps a ``__dict__``, so
  completeness is unenforceable (and harmless) — those are skipped.
* **Hot-path coverage** — the classes in :data:`HOT_PATH_CLASSES` are
  allocated per-request/per-bank on the kernel hot path (PR 3 measured
  the win); each must declare slots directly so a refactor cannot
  silently regress them to dict-backed instances.
"""

from __future__ import annotations

import ast

from repro.lint.core import Finding, LintTree

NAME = "slots"
DESCRIPTION = (
    "slotted classes must assign only declared slots; hot-path classes "
    "must declare __slots__"
)

#: (path, class) pairs that must stay slotted (kernel hot path, PR 3).
HOT_PATH_CLASSES = (
    ("sim/request.py", "Request"),
    ("sim/core.py", "RobEntry"),
    ("sim/core.py", "CoreModel"),
    ("sim/controller.py", "TimingArrays"),
    ("sim/controller.py", "ControllerStats"),
    ("sim/audit.py", "CommandRecord"),
    ("core/engine.py", "_BankPeriodicState"),
    ("orchestrator/backends/server.py", "_Job"),
)


def _dataclass_slots(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = deco.func.attr if isinstance(deco.func, ast.Attribute) else (
            deco.func.id if isinstance(deco.func, ast.Name) else None
        )
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if (
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


def _declared_slots(node: ast.ClassDef) -> tuple[set[str] | None, int]:
    """(slot names, line) or (None, def line) when the class is unslotted."""
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
        ):
            names: set[str] = set()
            value = item.value
            elements = (
                value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
            )
            for element in elements:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.add(element.value)
            return names, item.lineno
    if _dataclass_slots(node):
        fields = {
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        }
        return fields, node.lineno
    return None, node.lineno


def _class_level_names(node: ast.ClassDef) -> set[str]:
    """Methods, properties and class vars — legal targets on a slotted
    class when they are descriptors (properties with setters etc.)."""
    names: set[str] = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
        else:
            names.append("?")
    return names


def check(tree: LintTree) -> list[Finding]:
    registry: dict[str, tuple[str, ast.ClassDef]] = {}
    per_file: dict[str, dict[str, ast.ClassDef]] = {}
    for src in tree:
        classes = {
            node.name: node
            for node in ast.walk(src.tree)
            if isinstance(node, ast.ClassDef)
        }
        per_file[src.path] = classes
        for name, node in classes.items():
            registry.setdefault(name, (src.path, node))

    slots_cache: dict[int, set[str] | None] = {}

    def own_slots(node: ast.ClassDef) -> set[str] | None:
        key = id(node)
        if key not in slots_cache:
            slots_cache[key] = _declared_slots(node)[0]
        return slots_cache[key]

    def resolved_slots(node: ast.ClassDef, seen: set[int]) -> set[str] | None:
        """Union of slots up the (name-resolved) MRO, or None when any
        link is unslotted/unresolvable (=> the class has a __dict__)."""
        if id(node) in seen:
            return None
        seen.add(id(node))
        mine = own_slots(node)
        if mine is None:
            return None
        total = set(mine)
        for base in _base_names(node):
            if base == "object":
                continue
            entry = registry.get(base)
            if entry is None:
                return None  # external base: assume dict-backed
            inherited = resolved_slots(entry[1], seen)
            if inherited is None:
                return None
            total |= inherited
        return total

    findings: list[Finding] = []
    for src in tree:
        for name, node in per_file[src.path].items():
            allowed = resolved_slots(node, set())
            if allowed is None:
                continue
            allowed = allowed | _class_level_names(node)
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                args = item.args
                params = [*args.posonlyargs, *args.args]
                self_name = params[0].arg if params else "self"
                for sub in ast.walk(item):
                    if not isinstance(sub, ast.Attribute):
                        continue
                    if not isinstance(sub.ctx, (ast.Store, ast.Del)):
                        continue
                    if (
                        isinstance(sub.value, ast.Name)
                        and sub.value.id == self_name
                        and sub.attr not in allowed
                    ):
                        findings.append(
                            Finding(
                                rule=NAME,
                                path=src.path,
                                line=sub.lineno,
                                symbol=f"{name}.{sub.attr}",
                                message=(
                                    f"'{sub.attr}' assigned on slotted class "
                                    f"{name} but absent from its (inherited) "
                                    "__slots__ — this raises AttributeError "
                                    "on the first path that executes it"
                                ),
                            )
                        )

    for path, cls_name in HOT_PATH_CLASSES:
        classes = per_file.get(path)
        if classes is None:
            continue  # fixture trees only carry a subset of files
        node = classes.get(cls_name)
        if node is None:
            findings.append(
                Finding(
                    rule=NAME,
                    path=path,
                    line=1,
                    symbol=cls_name,
                    message=(
                        f"hot-path class {cls_name} not found — update "
                        "HOT_PATH_CLASSES if it moved or was renamed"
                    ),
                )
            )
            continue
        if own_slots(node) is None:
            findings.append(
                Finding(
                    rule=NAME,
                    path=path,
                    line=node.lineno,
                    symbol=cls_name,
                    message=(
                        f"hot-path class {cls_name} must declare __slots__ "
                        "(or @dataclass(slots=True)): it is allocated on "
                        "the kernel hot path (see PR 3 measurements)"
                    ),
                )
            )
    return findings
