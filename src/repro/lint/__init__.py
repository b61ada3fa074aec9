"""``repro lint``: AST-based invariant linting for the simulator.

Six repo-specific rules guard the invariants the runtime layers
(controller gates → oracle) cannot see:

========================  ==============================================
rule                      invariant
========================  ==============================================
``timing-coverage``       every ``TimingParams`` field is enforced by
                          controller gating and the oracle
``determinism``           no wall clocks, unseeded RNGs, ``id()``/
                          ``hash()`` ordering, or raw set iteration in
                          simulation logic
``slots``                 slotted classes only assign declared slots;
                          hot-path classes declare ``__slots__``
``protocol-dispatch``     every socket-protocol message type is sent and
                          dispatched on by the right endpoints
``protocol-timeouts``     every protocol receive is bounded by a socket
                          timeout / timeout handler, or carries a
                          ``blocking-ok:`` justification
``stats-coverage``        every ``ControllerStats``/``ChipStats`` field
                          is exported through the obs metrics tables,
                          and no table entry is stale
========================  ==============================================

Run ``repro lint`` (or ``python -m repro.cli lint``); see README
"Static analysis" for suppressions and the baseline workflow, and
``tools/check_lint.py`` for the planted-mutation guards that prove each
rule is non-vacuous.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import (
    determinism,
    protocol_dispatch,
    protocol_timeouts,
    slots,
    stats_coverage,
    timing_coverage,
)
from repro.lint.core import (  # noqa: F401  (re-exported API)
    Finding,
    LintResult,
    LintTree,
    LintUsageError,
    run_lint,
)

#: Rule name -> checker module (each exposes NAME/DESCRIPTION/check).
CHECKERS = {
    module.NAME: module
    for module in (
        timing_coverage,
        determinism,
        slots,
        protocol_dispatch,
        protocol_timeouts,
        stats_coverage,
    )
}

#: The installed ``src/repro`` tree — the default lint root.
DEFAULT_ROOT = Path(__file__).resolve().parent.parent

#: The committed baseline for grandfathered findings (kept empty: the
#: first clean run fixed every real finding instead of baselining it).
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def lint_tree(
    root: Path | None = None,
    rules: list[str] | None = None,
    baseline: Path | None | str = "auto",
) -> LintResult:
    """Run the registered checkers; ``baseline="auto"`` uses the committed
    baseline only when linting the default root."""
    root = Path(root) if root is not None else DEFAULT_ROOT
    if baseline == "auto":
        baseline = DEFAULT_BASELINE if root == DEFAULT_ROOT else None
    return run_lint(root, CHECKERS, rules=rules, baseline_path=baseline)
