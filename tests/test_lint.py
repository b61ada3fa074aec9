"""Unit suite for ``repro lint`` (src/repro/lint).

Each rule gets one *bad* fixture (a planted violation it must flag) and
one *good* fixture (idiomatic code it must pass) under
``tests/lint_fixtures/``, mirroring real repo paths so the file-anchored
rules (protocol endpoints, timing surfaces, metric tables) engage.
The suite also locks the suppression/baseline workflow, the JSON report
shape, and — most importantly — a no-false-positive run over the real
``src/repro`` tree.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.lint import CHECKERS, DEFAULT_ROOT, lint_tree
from repro.lint.core import LintUsageError, run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"

CASES = [
    ("timing-coverage", "timing_bad", "timing_good"),
    ("determinism", "determinism_bad", "determinism_good"),
    ("slots", "slots_bad", "slots_good"),
    ("protocol-dispatch", "protocol_bad", "protocol_good"),
    ("protocol-timeouts", "protocol_timeouts_bad", "protocol_timeouts_good"),
    ("stats-coverage", "stats_coverage_bad", "stats_coverage_good"),
]


def _run(root: Path, rules: list[str], baseline: Path | None = None):
    return run_lint(root, CHECKERS, rules=rules, baseline_path=baseline)


# ----------------------------------------------------------------------
# Per-rule bad/good fixtures
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule,bad,good", CASES, ids=[c[0] for c in CASES])
def test_rule_flags_bad_fixture(rule, bad, good):
    result = _run(FIXTURES / bad, [rule])
    assert not result.clean, f"{rule} missed its planted violation"
    assert {f.rule for f in result.findings} == {rule}
    for finding in result.findings:
        assert finding.path and finding.line >= 1
        assert finding.message


@pytest.mark.parametrize("rule,bad,good", CASES, ids=[c[0] for c in CASES])
def test_rule_passes_good_fixture(rule, bad, good):
    result = _run(FIXTURES / good, [rule])
    assert result.clean, [f.render() for f in result.findings]


def test_timing_coverage_flags_both_surfaces():
    result = _run(FIXTURES / "timing_bad", ["timing-coverage"])
    messages = [f.message for f in result.findings]
    assert len(messages) == 2  # gating + oracle, tfoo only
    assert all(f.symbol == "tfoo" for f in result.findings)
    assert any("controller gating" in m for m in messages)
    assert any("oracle rule generation" in m for m in messages)


def test_stats_coverage_flags_both_directions():
    result = _run(FIXTURES / "stats_coverage_bad", ["stats-coverage"])
    symbols = {f.symbol for f in result.findings}
    # Missing export is anchored to the dataclass, stale entry to the table.
    assert symbols == {"ControllerStats.acts", "CONTROLLER_METRICS['row_hits']"}
    by_symbol = {f.symbol: f for f in result.findings}
    assert by_symbol["ControllerStats.acts"].path == "sim/controller.py"
    assert by_symbol["CONTROLLER_METRICS['row_hits']"].path == "obs/metrics.py"


def test_protocol_timeouts_names_each_unbounded_receive():
    result = _run(FIXTURES / "protocol_timeouts_bad", ["protocol-timeouts"])
    # No timeout at all, and a timeout lifted by settimeout(None).
    assert {f.symbol for f in result.findings} == {"await_welcome", "await_job"}
    assert {f.path for f in result.findings} == {"orchestrator/backends/worker.py"}


def test_protocol_dispatch_names_missing_arm():
    result = _run(FIXTURES / "protocol_bad", ["protocol-dispatch"])
    (finding,) = result.findings
    assert finding.symbol == "job"
    assert finding.path == "orchestrator/backends/worker.py"


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule,bad,good", CASES, ids=[c[0] for c in CASES])
def test_inline_suppression_silences_each_rule(rule, bad, good, tmp_path):
    root = tmp_path / bad
    shutil.copytree(FIXTURES / bad, root)
    before = _run(root, [rule])
    assert before.findings
    by_file: dict[str, set[int]] = {}
    for finding in before.findings:
        by_file.setdefault(finding.path, set()).add(finding.line)
    for rel, lines in by_file.items():
        path = root / rel
        text = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            text[line - 1] += "  # repro-lint: disable=all"
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
    after = _run(root, [rule])
    assert after.clean, [f.render() for f in after.findings]
    assert after.suppressed == len(before.findings)


def test_suppression_is_rule_specific(tmp_path):
    root = tmp_path / "tree"
    shutil.copytree(FIXTURES / "protocol_timeouts_bad", root)
    result = _run(root, ["protocol-timeouts"])
    finding = result.findings[0]
    path = root / finding.path
    text = path.read_text(encoding="utf-8").splitlines()
    text[finding.line - 1] += "  # repro-lint: disable=timing-coverage"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    # Disabling a *different* rule must not silence the finding.
    after = _run(root, ["protocol-timeouts"])
    assert len(after.findings) == len(result.findings)


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def _baseline_file(tmp_path: Path, entries: list[dict]) -> Path:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": entries}))
    return path


def test_baseline_grandfathers_matching_findings(tmp_path):
    findings = _run(FIXTURES / "protocol_bad", ["protocol-dispatch"]).findings
    baseline = _baseline_file(
        tmp_path,
        [
            {
                "rule": f.rule,
                "path": f.path,
                "symbol": f.symbol,
                "reason": "fixture: grandfathered for the baseline test",
            }
            for f in findings
        ],
    )
    result = _run(FIXTURES / "protocol_bad", ["protocol-dispatch"], baseline)
    assert result.clean
    assert result.baselined == len(findings)


def test_stale_baseline_entry_is_a_finding(tmp_path):
    baseline = _baseline_file(
        tmp_path,
        [
            {
                "rule": "protocol-timeouts",
                "path": "orchestrator/backends/worker.py",
                "symbol": "ghost",
                "reason": "matches nothing",
            }
        ],
    )
    result = _run(
        FIXTURES / "protocol_timeouts_good", ["protocol-timeouts"], baseline
    )
    assert not result.clean
    assert result.findings[0].rule == "stale-baseline"


def _slots_entry(rule: str) -> dict:
    """A baseline entry keyed like the one ``slots_bad`` finding."""
    return {
        "rule": rule,
        "path": "sim/cache.py",
        "symbol": "Entry.hits",
        "reason": "fixture: the slots_bad finding",
    }


def test_baseline_entry_of_a_rule_not_run_is_not_judged(tmp_path):
    baseline = _baseline_file(tmp_path, [_slots_entry("slots")])
    # Under --rules determinism the slots entry has no evidence either way.
    assert _run(FIXTURES / "slots_bad", ["determinism"], baseline).clean
    result = _run(FIXTURES / "slots_bad", ["slots"], baseline)
    assert result.clean and result.baselined == 1


def test_baseline_entry_of_an_unregistered_rule_is_stale(tmp_path):
    baseline = _baseline_file(tmp_path, [_slots_entry("retired-rule")])
    result = _run(FIXTURES / "slots_bad", ["determinism"], baseline)
    (finding,) = result.findings
    assert finding.rule == "stale-baseline"
    assert "'retired-rule'" in finding.message


def test_baseline_entry_without_reason_is_usage_error(tmp_path):
    baseline = _baseline_file(
        tmp_path,
        [
            {
                "rule": "protocol-timeouts",
                "path": "orchestrator/backends/worker.py",
                "symbol": "X.y",
            }
        ],
    )
    with pytest.raises(LintUsageError, match="justification"):
        _run(FIXTURES / "protocol_timeouts_good", ["protocol-timeouts"], baseline)


def test_committed_baseline_is_empty():
    # The repo policy: fix findings, don't accumulate grandfathered debt.
    data = json.loads(
        (DEFAULT_ROOT / "lint" / "baseline.json").read_text(encoding="utf-8")
    )
    assert data["entries"] == []


# ----------------------------------------------------------------------
# Engine behavior
# ----------------------------------------------------------------------
def test_unknown_rule_is_usage_error():
    with pytest.raises(LintUsageError, match="unknown rule"):
        _run(FIXTURES / "protocol_timeouts_good", ["no-such-rule"])


def test_missing_root_is_usage_error(tmp_path):
    with pytest.raises(LintUsageError):
        _run(tmp_path / "nope", ["protocol-timeouts"])


def test_syntax_error_in_tree_is_usage_error(tmp_path):
    root = tmp_path / "tree"
    (root / "sim").mkdir(parents=True)
    (root / "sim" / "broken.py").write_text("def oops(:\n")
    with pytest.raises(LintUsageError):
        _run(root, ["protocol-timeouts"])


def test_json_report_shape():
    result = _run(FIXTURES / "determinism_bad", ["determinism"])
    payload = result.to_json()
    assert payload["version"] == 1
    assert payload["rules"] == ["determinism"]
    assert payload["clean"] is False
    assert isinstance(payload["files"], int)
    assert isinstance(payload["suppressed"], int)
    assert isinstance(payload["baselined"], int)
    for row in payload["findings"]:
        assert set(row) == {"rule", "path", "line", "symbol", "message"}


def test_findings_sorted_by_location():
    result = _run(FIXTURES / "determinism_bad", ["determinism"])
    keys = [(f.path, f.line, f.rule, f.symbol) for f in result.findings]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------
def test_real_tree_is_clean():
    """No false positives on src/repro — the same gate CI runs."""
    result = lint_tree()
    assert result.clean, [f.render() for f in result.findings]


def test_registry_names_match_modules():
    for name, module in CHECKERS.items():
        assert module.NAME == name
        assert module.DESCRIPTION
        assert callable(module.check)
