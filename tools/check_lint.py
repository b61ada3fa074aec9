"""CI vacuousness gate for ``repro lint``.

A linter that never fires is indistinguishable from a correct tree, so
this gate proves both rules (``timing-coverage`` and ``determinism``)
still bite.  It runs two passes:

1. **Clean pass** — the real ``src/repro`` tree must lint clean (the
   same check ``repro lint`` performs; running it here keeps the guard
   self-contained).
2. **Planted-mutation pass** — for each rule, copy ``src/repro`` to a
   temp tree, plant one realistic violation (an unenforced timing field,
   a wall-clock read), and require that rule to fire on the mutated
   tree.

Usage::

    python tools/check_lint.py            # clean pass + all mutations
    python tools/check_lint.py --mypy     # also run the targeted mypy set

``--mypy`` is a no-op (with a notice) when mypy is not installed, so the
script stays runnable in the bare container; CI installs mypy and passes
the flag.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lint import CHECKERS, run_lint

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Targeted mypy set (satellite d): the stable, annotation-complete
#: protocol/data modules other layers build on.
MYPY_TARGETS = (
    "src/repro/dram/timing.py",
    "src/repro/sim/request.py",
    "src/repro/orchestrator/hashing.py",
    "src/repro/orchestrator/backends/protocol.py",
)


def _mutate_timing(tree: Path) -> None:
    """Stop the oracle's rule table from enforcing tRTP."""
    path = tree / "sim" / "oracle.py"
    text = path.read_text(encoding="utf-8")
    assert "trtp" in text, "oracle.py no longer references trtp"
    path.write_text(text.replace("trtp", "ztrtp"), encoding="utf-8")


def _mutate_determinism(tree: Path) -> None:
    """Plant a wall-clock read in simulation logic."""
    path = tree / "sim" / "trace.py"
    text = path.read_text(encoding="utf-8")
    path.write_text(
        text
        + "\n\nimport time\n\n\ndef _lint_mut_wallclock() -> float:\n"
        + "    return time.time()\n",
        encoding="utf-8",
    )


MUTATIONS = (
    ("timing-coverage", _mutate_timing),
    ("determinism", _mutate_determinism),
)


def check_clean() -> int:
    result = run_lint()
    if result.clean:
        print(f"clean pass: ok ({result.files} files, "
              f"{len(result.rules)} rules)")
        return 0
    print(f"clean pass: FAIL — {len(result.findings)} finding(s) on the "
          "real tree:")
    for finding in result.findings:
        print(f"  {finding.render()}")
    return 1


def check_mutations() -> int:
    failures = 0
    for rule, mutate in MUTATIONS:
        with tempfile.TemporaryDirectory(prefix=f"lintmut-{rule}-") as tmp:
            tree = Path(tmp) / "repro"
            shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
            mutate(tree)
            result = run_lint(root=tree)
            fired = sorted({f.rule for f in result.findings})
            if rule in fired:
                print(f"mutation pass [{rule}]: ok "
                      f"({len(result.findings)} finding(s))")
            else:
                failures += 1
                print(f"mutation pass [{rule}]: FAIL — planted violation "
                      f"not detected (rules fired: {fired or 'none'})")
    return failures


def check_mypy() -> int:
    try:
        import mypy  # noqa: F401
    except ImportError:
        print("mypy pass: skipped (mypy not installed in this environment)")
        return 0
    repo = Path(__file__).resolve().parent.parent
    cmd = [
        sys.executable, "-m", "mypy",
        "--config-file", str(repo / "mypy.ini"),
        *[str(repo / t) for t in MYPY_TARGETS],
    ]
    proc = subprocess.run(cmd, cwd=repo)
    status = "ok" if proc.returncode == 0 else f"FAIL (exit {proc.returncode})"
    print(f"mypy pass: {status} ({len(MYPY_TARGETS)} modules)")
    return 0 if proc.returncode == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mypy", action="store_true",
                        help="also type-check the targeted module set "
                             "(skipped when mypy is unavailable)")
    args = parser.parse_args(argv)

    assert len(MUTATIONS) == len(CHECKERS), (
        "every registered rule needs a planted mutation: "
        f"{sorted(CHECKERS)} vs {sorted(r for r, _ in MUTATIONS)}"
    )
    failures = check_clean()
    failures += check_mutations()
    if args.mypy:
        failures += check_mypy()
    if failures:
        print(f"FAIL: {failures} lint-gate problem(s)")
        return 1
    print("OK: tree is clean and every lint rule catches its planted violation")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
