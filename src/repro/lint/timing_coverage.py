"""Rule ``timing-coverage``: every ``TimingParams`` field must be enforced
twice.

Fuzzing once found tRCD and REF-busy column checks missing from an
after-the-fact checker *by accident*.  This rule makes the two-layer
enforcement story (controller issue gates → oracle rule generation) a
static property: a timing knob someone adds to ``TimingParams`` is a lint
error until

* (a) the controller/engine gating code reads it (as ``field`` or its
  cycle-domain twin ``field_c``) outside ``__init__`` — a read that only
  happens in the constructor's ps→cycle conversion is dead gating;
* (b) ``build_rule_table`` feeds it into the oracle's rule table (the one
  after-the-fact checker; ``CommandAuditor`` only records).

Derived names count: ``hira_t1``/``hira_t2`` are enforced via the
combined ``hira_gap``/``hira_gap_c``.  Two fields are exempt by design
(:data:`EXEMPT_FIELDS`) — each with its reason, surfaced in the finding
text so the exemption list can't silently grow.
"""

from __future__ import annotations

import ast

from repro.lint.core import Finding, LintTree

NAME = "timing-coverage"
DESCRIPTION = (
    "every TimingParams field must be read by controller gating and "
    "oracle rule generation"
)

TIMING_FILE = "dram/timing.py"
TIMING_CLASS = "TimingParams"

#: (a) controller/engine issue-gating surfaces.
GATING_FILES = ("sim/controller.py", "sim/elastic.py", "core/engine.py")
#: (b) oracle rule generation.
ORACLE_FILE = "sim/oracle.py"
ORACLE_FUNC = "build_rule_table"

#: Fields enforced through a derived quantity rather than by name.
DERIVED = {"hira_t1": ("hira_gap",), "hira_t2": ("hira_gap",)}

#: Fields exempt from enforcement coverage, each with its justification.
EXEMPT_FIELDS = {
    "tck": (
        "defines the cycle domain itself (every *_c conversion divides "
        "by it); there is no per-command tCK check to make"
    ),
    "trefw": (
        "the retention window feeds the periodic generation *rate* "
        "(SystemConfig.per_bank_refresh_interval_cycles), not any "
        "command-to-command legality rule"
    ),
}


def _timing_fields(tree: LintTree):
    src = tree.get(TIMING_FILE)
    if src is None:
        return None, None
    for node in src.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == TIMING_CLASS:
            fields = {}
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    fields[item.target.id] = item.lineno
            return fields, src
    return None, src


def _attr_loads(nodes, skip_init: bool) -> set[str]:
    """All attribute names read in ``nodes``; optionally ignoring any
    reads inside a function named ``__init__``."""
    names: set[str] = set()

    def visit(node, in_init: bool):
        for child in ast.iter_child_nodes(node):
            child_in_init = in_init
            if isinstance(child, ast.FunctionDef):
                child_in_init = in_init or (skip_init and child.name == "__init__")
            if isinstance(child, ast.Attribute) and not child_in_init:
                names.add(child.attr)
            visit(child, child_in_init)

    for node in nodes:
        visit(node, False)
    return names


def _surface_reads(tree: LintTree):
    gating: set[str] = set()
    missing: list[str] = []
    for rel in GATING_FILES:
        src = tree.get(rel)
        if src is None:
            continue
        gating |= _attr_loads([src.tree], skip_init=True)
    if not any(tree.get(rel) for rel in GATING_FILES):
        missing.append("gating files " + "/".join(GATING_FILES))

    oracle: set[str] = set()
    src = tree.get(ORACLE_FILE)
    found = False
    if src is not None:
        for node in src.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == ORACLE_FUNC:
                oracle = _attr_loads([node], skip_init=False)
                found = True
    if not found:
        missing.append(f"{ORACLE_FILE}:{ORACLE_FUNC}")
    return gating, oracle, missing


def check(tree: LintTree) -> list[Finding]:
    fields, src = _timing_fields(tree)
    if src is None:
        return []  # tree without dram/timing.py: nothing to check
    if fields is None:
        return [
            Finding(
                rule=NAME,
                path=TIMING_FILE,
                line=1,
                symbol=TIMING_CLASS,
                message=f"class {TIMING_CLASS} not found",
            )
        ]
    gating, oracle, missing = _surface_reads(tree)
    findings = [
        Finding(
            rule=NAME,
            path=TIMING_FILE,
            line=1,
            symbol=anchor,
            message=f"enforcement surface missing from tree: {anchor}",
        )
        for anchor in missing
    ]
    surfaces = (
        ("controller gating", gating),
        ("oracle rule generation", oracle),
    )
    for name, line in sorted(fields.items()):
        if name in EXEMPT_FIELDS:
            continue
        accepted = {name, name + "_c"}
        for derived in DERIVED.get(name, ()):
            accepted |= {derived, derived + "_c"}
        for surface_name, reads in surfaces:
            if accepted & reads:
                continue
            findings.append(
                Finding(
                    rule=NAME,
                    path=TIMING_FILE,
                    line=line,
                    symbol=name,
                    message=(
                        f"TimingParams.{name} is never read by {surface_name} "
                        f"(expected one of: {', '.join(sorted(accepted))}); "
                        "an unenforced knob silently un-checks every run — "
                        "wire it through or add it to EXEMPT_FIELDS with a "
                        "justification"
                    ),
                )
            )
    return findings
