"""Fleet telemetry: FleetStatus lifecycle, status files, `repro status`.

The contract: lifecycle events fold into deterministic job counts, the
status file is written atomically and round-trips through
:func:`load_status`, heartbeat chatter is rate-limited while lifecycle
edges force a write, a ``None`` path makes every write a no-op, and the
``repro status`` subcommand renders both the snapshot and each sweep's
progress from the result store's manifests.  Telemetry must never break
a sweep, so the unwritable-path case is exercised too.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.fleet import (
    FleetStatus,
    JOB_EVENTS,
    load_status,
    render_status,
)


def _drive(status: FleetStatus) -> None:
    """A representative sweep: 3 jobs, one retry, one quarantine."""
    status.sweep_started("demo", points=5, reused=2, todo=3, workers=2)
    status.worker_seen("w1")
    status.worker_seen("w2")
    for index in range(3):
        status.job_dispatched(str(index), "w1")
    status.worker_heartbeat("w1")
    status.job_retried("1", attempts=2)
    status.job_speculated("2")
    status.worker_quarantined("w2")
    for label in ("p0", "p1", "p2"):
        status.point_done(label)
    status.sweep_finished("socket", 1.25)


def test_lifecycle_folds_into_job_counts(tmp_path):
    status = FleetStatus(tmp_path / "status.json")
    _drive(status)
    assert status.job_counts() == {
        "queued": 3,
        "dispatched": 3,
        "retried": 1,
        "speculated": 1,
        "quarantined": 1,
        "done": 3,
    }
    assert tuple(status.job_counts()) == JOB_EVENTS


def test_snapshot_round_trips_through_status_file(tmp_path):
    path = tmp_path / "status.json"
    status = FleetStatus(path)
    _drive(status)
    loaded = load_status(path)
    assert loaded is not None
    assert loaded["kind"] == "repro-fleet-status"
    assert loaded["sweep"]["name"] == "demo"
    assert loaded["sweep"]["state"] == "finished"
    assert loaded["sweep"]["done"] == 3
    assert loaded["backend"] == "socket"
    assert loaded["jobs"] == status.job_counts()
    assert set(loaded["workers"]) == {"w1", "w2"}
    assert loaded["workers"]["w1"]["age_s"] >= 0
    assert loaded["quarantined"] == ["w2"]
    assert "fleet_jobs_total" in loaded["metrics"]


def test_none_path_is_a_no_op(tmp_path):
    status = FleetStatus(None)
    _drive(status)  # must not raise, must not write anywhere
    assert status.job_counts()["done"] == 3
    assert not list(tmp_path.iterdir())


def test_unwritable_path_never_raises(tmp_path):
    # Telemetry is best-effort: a doomed status path must not break the
    # producer (run_sweep / JobServer call these mid-dispatch).
    doomed = tmp_path / "not-a-dir"
    doomed.write_text("plain file, not a directory")
    status = FleetStatus(doomed / "status.json")
    _drive(status)
    assert status.job_counts()["done"] == 3


def test_heartbeats_are_rate_limited_but_edges_force_writes(tmp_path):
    path = tmp_path / "status.json"
    status = FleetStatus(path, min_interval_s=3600)
    status.sweep_started("demo", points=1, reused=0, todo=1, workers=1)
    first = path.read_bytes()
    # Heartbeat chatter inside the interval is coalesced away.
    for __ in range(50):
        status.worker_heartbeat("w1")
    assert path.read_bytes() == first
    # A lifecycle edge forces the write regardless of the interval.
    status.sweep_finished("serial", 0.5)
    assert json.loads(path.read_text())["sweep"]["state"] == "finished"


def test_load_status_absent_or_corrupt(tmp_path):
    assert load_status(tmp_path / "missing.json") is None
    bad = tmp_path / "torn.json"
    bad.write_text('{"kind": "repro-fleet-st')
    assert load_status(bad) is None


def test_render_status_mentions_everything(tmp_path):
    path = tmp_path / "status.json"
    status = FleetStatus(path)
    _drive(status)
    text = render_status(load_status(path), [])
    assert "sweep demo: finished" in text
    assert "backend: socket" in text
    assert "retried 1" in text and "quarantined 1" in text
    assert "w1" in text and "w2" in text
    assert "quarantined: w2" in text
    assert render_status(None, []) == ""


def test_store_progress_reads_the_manifests(tmp_path):
    from repro.orchestrator.cache import ResultCache

    cache = ResultCache(tmp_path, fingerprint="f" * 8)
    cache.write_manifest("demo", ["k0", "k1"])
    cache.path_for("k0").parent.mkdir(parents=True)
    cache.path_for("k0").write_text("{}")
    progress = cache.progress()
    assert progress == [("demo", 1, 2)]
    assert ResultCache(tmp_path / "nowhere").progress() == []
    text = render_status(None, progress)
    assert "store:" in text and "demo: 1/2 points stored, incomplete" in text


def test_manifest_fingerprint_change_resets_stored_count(tmp_path):
    """Point keys carry the source fingerprint, so after a source change
    the re-run's manifest plans new keys: entries stored by the old code
    must not count toward its progress (never e.g. "10/6" or "4/6")."""
    from repro.orchestrator.cache import ResultCache

    def store(cache, key):
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("{}")

    old = ResultCache(tmp_path, fingerprint="a" * 8)
    old_keys = [f"a{i}" * 4 for i in range(6)]
    old.write_manifest("demo", old_keys)
    for key in old_keys[:4]:
        store(old, key)
    assert old.progress() == [("demo", 4, 6)]
    # Source changed between runs: everything recomputes under new keys.
    new = ResultCache(tmp_path, fingerprint="b" * 8)
    new_keys = [f"b{i}" * 4 for i in range(6)]
    assert new.write_manifest("demo", new_keys) == "a" * 8
    assert new.progress() == [("demo", 0, 6)]
    for key in new_keys:
        store(new, key)
    assert new.progress() == [("demo", 6, 6)]
    assert "demo: 6/6 points stored, complete" in render_status(None, new.progress())


# ----------------------------------------------------------------------
# End to end: sweep --status-file, then the `repro status` subcommand
# ----------------------------------------------------------------------
def _run_cli(argv, capsys) -> tuple[int, str]:
    from repro.cli import main

    code = main(argv)
    return code, capsys.readouterr().out


def test_status_cli_end_to_end(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = _run_cli(
        [
            "sweep", "--name", "fleet-e2e", "--modes", "baseline",
            "--mixes", "1", "--instructions", "2000", "--backend", "serial",
            "--cache-dir", str(tmp_path / "store"),
            "--status-file", str(tmp_path / "status.json"),
        ],
        capsys,
    )
    assert code == 0
    assert "status file:" in out

    code, out = _run_cli(
        [
            "status", "--status-file", str(tmp_path / "status.json"),
            "--store", str(tmp_path / "store"),
        ],
        capsys,
    )
    assert code == 0
    assert "sweep fleet-e2e: finished" in out
    assert "jobs:" in out
    assert "store:" in out and "fleet-e2e: 1/1 points stored, complete" in out


def test_status_cli_reports_a_partial_store_without_a_snapshot(tmp_path, capsys):
    # A sweep killed after 1 of its 2 points: the store alone is enough
    # for `repro status` to report K/N and exit 0.
    from repro.orchestrator.cache import ResultCache

    cache = ResultCache(tmp_path / "store")
    cache.write_manifest("killed", ["aa00", "bb11"])
    cache.path_for("aa00").parent.mkdir(parents=True)
    cache.path_for("aa00").write_text("{}")
    code, out = _run_cli(
        ["status", "--status-file", "", "--store", str(tmp_path / "store")],
        capsys,
    )
    assert code == 0
    assert "store:" in out and "killed: 1/2 points stored, incomplete" in out


def test_status_cli_exits_nonzero_when_nothing_to_report(tmp_path, capsys):
    code, out = _run_cli(
        [
            "status", "--status-file", str(tmp_path / "missing.json"),
            "--store", str(tmp_path / "missing-store"),
        ],
        capsys,
    )
    assert code == 1
    assert "no status snapshot found" in out


def test_sweep_json_out_carries_telemetry_and_fleet(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, __ = _run_cli(
        [
            "sweep", "--name", "fleet-json", "--modes", "baseline",
            "--mixes", "1", "--instructions", "2000", "--backend", "serial",
            "--cache-dir", str(tmp_path / "store"),
            "--status-file", str(tmp_path / "status.json"),
            "--json-out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert "telemetry" in payload
    assert payload["fleet"]["done"] == 1
    assert payload["elapsed_s"] >= 0


# ----------------------------------------------------------------------
# Resume accounting: done/todo must stay truthful across replays
# ----------------------------------------------------------------------
def test_resumed_half_done_sweep_renders_consistent_progress(tmp_path):
    """Resuming a half-done sweep replays the stored half; the rendered
    line must count only newly computed points against ``todo`` — never
    ``done > todo``, never double-counting store-replayed points."""
    from repro.orchestrator.runner import run_sweep
    from repro.orchestrator.sweep import Sweep, Variant, axis, profile_workloads
    from repro.sim.trace import TraceProfile

    profiles = [
        TraceProfile(f"t{i}", mpki=18.0, row_locality=0.7) for i in range(8)
    ]

    def sweep_for(*variants):
        return Sweep(
            name="resume-demo",
            axes=(axis("cfg", *variants),),
            workloads=profile_workloads(profiles, count=1),
            instr_budget=2_000,
            max_cycles=2_000_000,
        )

    base = Variant.make("Baseline", refresh_mode="baseline")
    hira = Variant.make("HiRA-2", refresh_mode="hira", tref_slack_acts=2)
    store = tmp_path / "store"
    # The interrupted first run computed only half the grid.
    run_sweep(sweep_for(base), backend="serial", cache=store)
    # The resumed run replays that half from the store, computes the rest.
    path = tmp_path / "status.json"
    status = FleetStatus(path)
    run_sweep(sweep_for(base, hira), backend="serial", cache=store, status=status)
    text = render_status(load_status(path), [])
    assert (
        "sweep resume-demo: finished, 1/1 computed "
        "(1 replayed from the store, 2 points total)"
    ) in text


def test_point_done_is_idempotent_per_label(tmp_path):
    """A retried/speculated job can complete the same point twice; the
    second completion must not push ``done`` past ``todo``."""
    path = tmp_path / "status.json"
    status = FleetStatus(path)
    status.sweep_started("demo", points=4, reused=2, todo=2, workers=1)
    status.point_done("p0")
    status.point_done("p0")  # speculated duplicate of the same point
    status.point_done("p1")
    assert status.sweep["done"] == 2
    assert status.job_counts()["done"] == 2
    status.sweep_finished("serial", 0.5)
    text = render_status(load_status(path), [])
    assert "2/2 computed (2 replayed from the store, 4 points total)" in text
