"""``repro lint``: AST-based invariant linting for the simulator.

Two repo-specific rules guard the invariants the runtime layers
(controller gates → oracle) cannot see:

========================  ==============================================
rule                      invariant
========================  ==============================================
``timing-coverage``       every ``TimingParams`` field is enforced by
                          controller gating and the oracle
``determinism``           no wall clocks, unseeded RNGs, ``id()``/
                          ``hash()`` ordering, or raw set iteration in
                          simulation logic
========================  ==============================================

Run ``repro lint`` (or ``python -m repro.cli lint``); see README
"Static analysis", and ``tools/check_lint.py`` for the planted-mutation
guards that prove each rule is non-vacuous.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import determinism, timing_coverage
from repro.lint.core import (  # noqa: F401  (re-exported API)
    Finding,
    LintResult,
    LintTree,
    LintUsageError,
)

#: Rule name -> checker module (each exposes NAME/DESCRIPTION/check).
CHECKERS = {module.NAME: module for module in (timing_coverage, determinism)}

#: The installed ``src/repro`` tree — the default lint root.
DEFAULT_ROOT = Path(__file__).resolve().parent.parent


def run_lint(
    root: Path | None = None, rules: list[str] | None = None
) -> LintResult:
    """Run ``rules`` (default: every registered rule; a repeated name runs
    once) over the tree at ``root`` (default: ``src/repro``)."""
    selected = list(dict.fromkeys(CHECKERS if rules is None else rules))
    if not selected:
        raise LintUsageError("no rules selected")
    for rule in selected:
        if rule not in CHECKERS:
            raise LintUsageError(
                f"unknown rule {rule!r} (have: {', '.join(sorted(CHECKERS))})"
            )
    root = DEFAULT_ROOT if root is None else Path(root)
    tree = LintTree(root)
    findings = [f for rule in selected for f in CHECKERS[rule].check(tree)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.symbol))
    return LintResult(
        root=str(root), rules=selected, findings=findings, files=len(tree)
    )
