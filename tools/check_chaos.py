"""CI gate for the chaos suite (``tests/test_chaos.py``).

Two passes, on the principle that a guard which never fires proves
nothing:

1. **Matrix pass** — run the whole chaos suite under multiple simulator
   seeds (``REPRO_CHAOS_SEED``).  Every simulated fault case must
   deliver serial ``run_sweep``'s results exactly once under every
   seed; a case that only passes under seed 0 is a flake wearing a
   determinism costume.
2. **Planted-mutation pass** — for each one-line mutation of the
   dispatch policy (``orchestrator/backends/dispatch.py``), copy
   ``src/repro`` to a temp tree, plant it, and require every listed
   test selection to FAIL against the mutated tree.  ``no-requeue``
   turns a lost job into a failed sweep; the simulated cases and the
   real-socket ``test_worker_death_requeues_job`` must both catch it.
   The other mutations each switch off one policy (speculation, the
   speculative copy's place at the head of the queue, quarantine, the
   registration deadline's re-arm, liveness from the last frame) that
   its own simulated case guards.  If a selection
   still passes, it is vacuous.

Usage::

    python tools/check_chaos.py                # seeds 0,1 + mutations
    python tools/check_chaos.py --seeds 0      # single-seed quick pass
    python tools/check_chaos.py --skip-mutation
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DISPATCH = Path("orchestrator") / "backends" / "dispatch.py"
SUITE = "tests/test_chaos.py"

#: Wall-clock cap per pytest invocation.  A mutated tree may *hang*
#: instead of failing (a dropped job never completes the sweep); the cap
#: converts that into a detected failure instead of a stuck CI job.
SUITE_TIMEOUT_S = 420

#: (name, function the line lives in, old text, new text, selections):
#: each selection is pytest arguments that must fail on the mutant.
MUTATIONS = (
    (
        "no-requeue", "def _requeue",
        "        self._pending.append(job)\n",
        '        self._finish(out, Fail("requeue disabled (planted mutation)"))\n',
        (
            [SUITE, "-k", "TestSimulatedFaults"],
            ["tests/test_backends.py::TestFailureHandling::"
             "test_worker_death_requeues_job"],
        ),
    ),
    (
        "no-speculation", "def _may_speculate",
        "        return (\n",
        "        return False and (\n",
        ([SUITE, "-k", "speculated"],),
    ),
    (
        "no-quarantine", "def _note_failure",
        "len(window) >= self.quarantine_threshold",
        "len(window) > self.quarantine_threshold",
        ([SUITE, "-k", "quarantined"],),
    ),
    (
        "no-rearm", "def _lost",
        "            self._idle_since = now\n",
        "            pass\n",
        ([SUITE, "-k", "late_registration"],),
    ),
    (
        "speculate-at-tail", "def _advance",
        "self._pending.insert(0, copy)",
        "self._pending.append(copy)",
        ([SUITE, "-k", "speculated"],),
    ),
    (
        "liveness-from-assignment", "def _advance",
        "now >= worker.seen + self.heartbeat_timeout",
        "now >= worker.started + self.heartbeat_timeout",
        ([SUITE, "-k", "delayed"],),
    ),
)


def _run_suite(pythonpath: str, seed: int, args: list[str]) -> int | None:
    """Exit code of one pytest run (``None`` = timed out)."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath
    env["REPRO_CHAOS_SEED"] = str(seed)
    try:
        proc = subprocess.run(cmd, cwd=REPO, env=env, timeout=SUITE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


def check_matrix(seeds: list[int]) -> int:
    failures = 0
    for seed in seeds:
        code = _run_suite(str(REPO / "src"), seed, [SUITE])
        if code == 0:
            print(f"chaos matrix [seed {seed}]: ok")
        else:
            failures += 1
            state = "timed out" if code is None else f"exit {code}"
            print(f"chaos matrix [seed {seed}]: FAIL ({state})")
    return failures


def _plant(tree: Path, function: str, old: str, new: str) -> None:
    """Replace the first ``old`` after ``function`` in the dispatcher."""
    path = tree / DISPATCH
    text = path.read_text(encoding="utf-8")
    head, sep, tail = text.partition(function)
    assert sep and old in tail, f"{old!r} not found after {function!r}"
    path.write_text(head + sep + tail.replace(old, new, 1), encoding="utf-8")


def check_mutations() -> int:
    failures = 0
    for name, function, old, new, selections in MUTATIONS:
        with tempfile.TemporaryDirectory(prefix="chaosmut-") as tmp:
            tree = Path(tmp) / "repro"
            shutil.copytree(SRC, tree,
                            ignore=shutil.ignore_patterns("__pycache__"))
            _plant(tree, function, old, new)
            for args in selections:
                code = _run_suite(tmp, seed=0, args=args)
                target = " ".join(args)
                if code == 0:
                    failures += 1
                    print(f"mutation pass [{name}]: FAIL — `{target}` passed "
                          "against the mutated dispatcher (vacuous)")
                else:
                    state = ("timed out (counts as detected)" if code is None
                             else f"exit {code}")
                    print(f"mutation pass [{name}]: ok — `{target}` failed "
                          f"as required ({state})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1",
                        help="comma list of REPRO_CHAOS_SEED values")
    parser.add_argument("--skip-mutation", action="store_true",
                        help="matrix pass only (skip the vacuousness guard)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    failures = check_matrix(seeds)
    if not args.skip_mutation:
        failures += check_mutations()
    if failures:
        print(f"FAIL: {failures} chaos-gate problem(s)")
        return 1
    print("OK: chaos suite deterministic across seeds and non-vacuous")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
