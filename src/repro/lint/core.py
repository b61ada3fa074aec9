"""Core engine for ``repro lint``: AST loading, suppressions, baseline.

The linter is deliberately self-contained (stdlib ``ast`` only) and runs
on a *source tree*, not on imported modules: checkers receive a
:class:`LintTree` of parsed files keyed by repo-relative POSIX paths
(``sim/controller.py``), which lets the unit tests point the same
checkers at small fixture trees that mirror the real layout.

Three escape hatches, in increasing ceremony:

* a ``# repro-lint: disable=rule1,rule2`` (or ``disable=all``) comment on
  the finding's line suppresses it in place;
* a committed baseline file (``src/repro/lint/baseline.json``)
  grandfathers findings by ``(rule, path, symbol)`` — every entry MUST
  carry a non-empty ``reason`` and every entry MUST still match a live
  finding (stale entries are themselves findings, so the baseline can
  only shrink);
* fixing the code.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

#: JSON report schema revision (see README "Static analysis").
REPORT_VERSION = 1

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")


class LintUsageError(ValueError):
    """Bad invocation (missing root, unknown rule, malformed baseline):
    the CLI maps this to exit code 2, distinct from findings (1)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file/line and a symbol.

    ``symbol`` (e.g. ``"BaselineRefreshEngine.urgent"`` or a
    ``TimingParams`` field name) is the stable half of the baseline key:
    line numbers churn with unrelated edits, symbols don't.
    """

    rule: str
    path: str
    line: int
    message: str
    symbol: str = ""

    def render(self) -> str:
        sym = f" ({self.symbol})" if self.symbol else ""
        return f"{self.path}:{self.line}: [{self.rule}]{sym} {self.message}"


@dataclass
class SourceFile:
    path: str  # repo-relative POSIX path
    tree: ast.Module
    lines: list[str]

    def suppressed_rules(self, line: int) -> set[str]:
        """Rules disabled by a ``# repro-lint:`` comment on ``line``."""
        if not (1 <= line <= len(self.lines)):
            return set()
        match = _SUPPRESS_RE.search(self.lines[line - 1])
        if not match:
            return set()
        return {token.strip() for token in match.group(1).split(",") if token.strip()}


class LintTree:
    """Every parsable ``*.py`` under ``root``, keyed by relative path."""

    def __init__(self, root: Path):
        self.root = Path(root)
        if not self.root.is_dir():
            raise LintUsageError(f"lint root is not a directory: {self.root}")
        self.files: dict[str, SourceFile] = {}
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root).as_posix()
            text = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError as exc:  # pragma: no cover - defensive
                raise LintUsageError(f"cannot parse {rel}: {exc}") from exc
            self.files[rel] = SourceFile(rel, tree, text.splitlines())

    def get(self, rel: str) -> SourceFile | None:
        return self.files.get(rel)

    def __iter__(self):
        return iter(self.files.values())

    def __len__(self) -> int:
        return len(self.files)


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    symbol: str
    reason: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)


def load_baseline(path: Path | None) -> list[BaselineEntry]:
    """Parse the baseline file; a missing file is an empty baseline."""
    if path is None or not Path(path).exists():
        return []
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LintUsageError(f"malformed baseline {path}: {exc}") from exc
    entries = []
    for raw in data.get("entries", []):
        entry = BaselineEntry(
            rule=str(raw.get("rule", "")),
            path=str(raw.get("path", "")),
            symbol=str(raw.get("symbol", "")),
            reason=str(raw.get("reason", "")).strip(),
        )
        if not entry.rule or not entry.path:
            raise LintUsageError(
                f"baseline {path}: every entry needs 'rule' and 'path': {raw}"
            )
        if not entry.reason:
            raise LintUsageError(
                f"baseline {path}: entry {entry.key} has no justification "
                "('reason' is mandatory — an unexplained baseline entry is "
                "just a hidden finding)"
            )
        entries.append(entry)
    return entries


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    root: str
    rules: list[str]
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    files: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "root": self.root,
            "rules": self.rules,
            "files": self.files,
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "symbol": f.symbol,
                    "message": f.message,
                }
                for f in self.findings
            ],
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "clean": self.clean,
        }


def run_lint(
    root: Path,
    checkers: dict[str, object],
    rules: list[str] | None = None,
    baseline_path: Path | None = None,
) -> LintResult:
    """Run ``rules`` (default: all of ``checkers``) over the tree at
    ``root``, then apply suppressions and the baseline."""
    selected = list(checkers) if rules is None else list(rules)
    for rule in selected:
        if rule not in checkers:
            raise LintUsageError(
                f"unknown rule {rule!r} (have: {', '.join(sorted(checkers))})"
            )
    tree = LintTree(Path(root))
    raw: list[Finding] = []
    for rule in selected:
        raw.extend(checkers[rule].check(tree))
    raw.sort(key=lambda f: (f.path, f.line, f.rule, f.symbol))

    result = LintResult(
        root=str(root), rules=selected, files=len(tree)
    )
    entries = load_baseline(baseline_path)
    matched: set[tuple[str, str, str]] = set()
    by_key = {e.key: e for e in entries}
    for finding in raw:
        src = tree.get(finding.path)
        disabled = src.suppressed_rules(finding.line) if src else set()
        if finding.rule in disabled or "all" in disabled:
            result.suppressed += 1
            continue
        key = (finding.rule, finding.path, finding.symbol)
        if key in by_key:
            matched.add(key)
            result.baselined += 1
            continue
        result.findings.append(finding)
    for entry in entries:
        # An entry is judged only when its rule ran; one naming no
        # registered rule can never match again, so it is always stale.
        judged = entry.rule in selected or entry.rule not in checkers
        if judged and entry.key not in matched:
            result.findings.append(
                Finding(
                    rule="stale-baseline",
                    path=entry.path,
                    line=0,
                    symbol=entry.symbol,
                    message=(
                        f"baseline entry for rule '{entry.rule}' no longer "
                        "matches any finding — delete it (the baseline only "
                        "shrinks)"
                    ),
                )
            )
    return result
