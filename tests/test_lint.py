"""Unit suite for ``repro lint`` (src/repro/lint).

Each rule gets one *bad* fixture (a planted violation it must flag) and
one *good* fixture (idiomatic code it must pass) under
``tests/lint_fixtures/``, mirroring real repo paths so the file-anchored
rules (timing surfaces, simulation-logic scopes) engage.
The suite also locks the rule selection, the JSON report shape, and —
most importantly — a no-false-positive run over the real ``src/repro``
tree.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import CHECKERS, LintUsageError, run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _copy_fixture(name: str, tmp_path: Path) -> Path:
    root = tmp_path / name
    shutil.copytree(FIXTURES / name, root)
    return root


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")

CASES = [
    ("timing-coverage", "timing_bad", "timing_good"),
    ("determinism", "determinism_bad", "determinism_good"),
]


# ----------------------------------------------------------------------
# Per-rule bad/good fixtures
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule,bad,good", CASES, ids=[c[0] for c in CASES])
def test_rule_flags_bad_fixture(rule, bad, good):
    result = run_lint(FIXTURES / bad, [rule])
    assert not result.clean, f"{rule} missed its planted violation"
    assert {f.rule for f in result.findings} == {rule}
    for finding in result.findings:
        assert finding.path and finding.line >= 1
        assert finding.message


@pytest.mark.parametrize("rule,bad,good", CASES, ids=[c[0] for c in CASES])
def test_rule_passes_good_fixture(rule, bad, good):
    result = run_lint(FIXTURES / good, [rule])
    assert result.clean, [f.render() for f in result.findings]


def test_timing_coverage_flags_both_surfaces():
    result = run_lint(FIXTURES / "timing_bad", ["timing-coverage"])
    messages = [f.message for f in result.findings]
    assert len(messages) == 2  # gating + oracle, tfoo only
    assert all(f.symbol == "tfoo" for f in result.findings)
    assert any("controller gating" in m for m in messages)
    assert any("oracle rule generation" in m for m in messages)


# ----------------------------------------------------------------------
# Each rule's own escape hatch — the only way to accept a finding
# ----------------------------------------------------------------------
def test_timing_coverage_exempt_fields_need_no_enforcement(tmp_path):
    root = _copy_fixture("timing_good", tmp_path)
    _edit(
        root / "dram" / "timing.py",
        "    tfoo: int = 5\n",
        "    tfoo: int = 5\n    tck: int = 1\n    trefw: int = 64\n    tbar: int = 3\n",
    )
    result = run_lint(root, ["timing-coverage"])
    # tck and trefw are in EXEMPT_FIELDS; tbar, equally unread, is not.
    assert {f.symbol for f in result.findings} == {"tbar"}


def test_determinism_int_keyed_set_may_iterate_raw(tmp_path):
    root = _copy_fixture("determinism_good", tmp_path)
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
    assert run_lint(root, ["determinism"]).clean
    # The same raw walk over a set outside INT_KEYED_SETS is a finding.
    _edit(root / "sim" / "clock.py", "sorted(self.pending_rows)", "self.pending_rows")
    (finding,) = run_lint(root, ["determinism"]).findings
    assert "pending_rows" in finding.message


def test_determinism_ignores_files_out_of_scope(tmp_path):
    root = tmp_path / "tree"
    (root / "obs").mkdir(parents=True)
    shutil.copy(FIXTURES / "determinism_bad" / "sim" / "clock.py", root / "obs")
    assert run_lint(root, ["determinism"]).clean
    (root / "sim").mkdir()
    shutil.move(root / "obs" / "clock.py", root / "sim" / "clock.py")
    assert not run_lint(root, ["determinism"]).clean


def test_determinism_keeps_the_dispatcher_sans_io(tmp_path):
    import repro.orchestrator.backends.dispatch as dispatch

    target = tmp_path / "tree" / "orchestrator" / "backends" / "dispatch.py"
    target.parent.mkdir(parents=True)
    shutil.copy(dispatch.__file__, target)
    assert run_lint(tmp_path / "tree", ["determinism"]).clean
    _edit(
        target,
        "        if self.finished:\n            return out\n",
        "        if self.finished:\n            return out\n"
        "        now = time.monotonic()\n",
    )
    (finding,) = run_lint(tmp_path / "tree", ["determinism"]).findings
    assert finding.path == "orchestrator/backends/dispatch.py"
    assert finding.symbol == "time.monotonic"


@pytest.mark.parametrize("rule,bad,good", CASES, ids=[c[0] for c in CASES])
def test_disable_comment_does_not_silence_findings(rule, bad, good, tmp_path):
    """There is no inline suppression syntax: a ``# repro-lint: disable=``
    comment on a flagged line changes nothing."""
    root = _copy_fixture(bad, tmp_path)
    before = run_lint(root, [rule])
    assert before.findings
    by_file: dict[str, set[int]] = {}
    for finding in before.findings:
        by_file.setdefault(finding.path, set()).add(finding.line)
    for rel, lines in by_file.items():
        path = root / rel
        text = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            text[line - 1] += f"  # repro-lint: disable={rule}"
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
    after = run_lint(root, [rule])
    assert after.findings == before.findings


# ----------------------------------------------------------------------
# Engine behavior
# ----------------------------------------------------------------------
def test_unknown_rule_is_usage_error():
    with pytest.raises(LintUsageError, match="unknown rule"):
        run_lint(FIXTURES / "timing_good", ["no-such-rule"])


def test_empty_rule_selection_is_usage_error():
    # A selection that runs nothing would report a vacuous "clean".
    with pytest.raises(LintUsageError, match="no rules selected"):
        run_lint(FIXTURES / "determinism_bad", [])


def test_repeated_rule_runs_once():
    once = run_lint(FIXTURES / "determinism_bad", ["determinism"])
    result = run_lint(
        FIXTURES / "determinism_bad", ["determinism", "determinism"]
    )
    assert result.rules == ["determinism"]
    assert result.findings == once.findings


def test_missing_root_is_usage_error(tmp_path):
    with pytest.raises(LintUsageError):
        run_lint(tmp_path / "nope", ["determinism"])


def test_syntax_error_in_tree_is_usage_error(tmp_path):
    root = tmp_path / "tree"
    (root / "sim").mkdir(parents=True)
    (root / "sim" / "broken.py").write_text("def oops(:\n")
    with pytest.raises(LintUsageError):
        run_lint(root, ["determinism"])


def test_json_report_shape():
    result = run_lint(FIXTURES / "determinism_bad", ["determinism"])
    payload = result.to_json()
    assert payload["version"] == 2
    assert set(payload) == {
        "version", "root", "rules", "files", "findings", "clean",
    }
    assert payload["rules"] == ["determinism"]
    assert payload["clean"] is False
    assert isinstance(payload["files"], int)
    for row in payload["findings"]:
        assert set(row) == {"rule", "path", "line", "symbol", "message"}


def test_findings_sorted_by_location():
    result = run_lint(FIXTURES / "determinism_bad", ["determinism"])
    keys = [(f.path, f.line, f.rule, f.symbol) for f in result.findings]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------
def test_real_tree_is_clean():
    """No false positives on src/repro — the same gate CI runs."""
    result = run_lint()
    assert result.clean, [f.render() for f in result.findings]


def test_registry_names_match_modules():
    for name, module in CHECKERS.items():
        assert module.NAME == name
        assert module.DESCRIPTION
        assert callable(module.check)
