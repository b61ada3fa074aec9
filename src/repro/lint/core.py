"""Core engine for ``repro lint``: AST loading and the result report.

The linter is deliberately self-contained (stdlib ``ast`` only) and runs
on a *source tree*, not on imported modules: checkers receive a
:class:`LintTree` of parsed files keyed by repo-relative POSIX paths
(``sim/controller.py``), which lets the unit tests point the same
checkers at small fixture trees that mirror the real layout.

There is no baseline and no inline suppression: findings are fixed.
Each rule carries its own reasoned escape hatch instead
(``timing-coverage``'s ``EXEMPT_FIELDS``, ``determinism``'s
``INT_KEYED_SETS`` and scopes).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: JSON report schema revision (see README "Static analysis").
REPORT_VERSION = 2


class LintUsageError(ValueError):
    """Bad invocation (missing root, unknown or empty rule selection):
    the CLI maps this to exit code 2, distinct from findings (1)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file/line and a symbol
    (e.g. ``"BaselineRefreshEngine.urgent"`` or a ``TimingParams`` field
    name)."""

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


@dataclass
class LintResult:
    root: str
    rules: list[str]
    findings: list[Finding] = field(default_factory=list)
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
            "clean": self.clean,
        }
