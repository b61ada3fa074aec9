"""Command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.mode == "hira" and args.capacity == 8.0

    def test_security_args(self):
        args = build_parser().parse_args(["security", "--nrh", "64", "--slack", "4"])
        assert args.nrh == 64.0 and args.slack == 4

    def test_sweep_backend_args(self):
        args = build_parser().parse_args([
            "sweep", "--backend", "socket", "--port", "7000",
            "--spawn-workers", "2",
        ])
        assert args.backend == "socket" and args.port == 7000
        assert args.spawn_workers == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "mainframe"])

    def test_audit_args(self):
        args = build_parser().parse_args([
            "audit", "--mode", "baseline", "--granularity", "same_bank",
            "--export-log", "log.json", "--rules-out", "rules.json",
        ])
        assert args.mode == "baseline" and args.granularity == "same_bank"
        assert args.export_log == "log.json"
        assert args.rules_out == "rules.json"

    def test_worker_args(self):
        args = build_parser().parse_args([
            "worker", "--port", "7000", "--max-sessions", "1",
            "--connect-timeout", "5",
        ])
        assert args.port == 7000 and args.max_sessions == 1
        assert args.connect_timeout == 5.0


class TestCommands:
    def test_security_command(self, capsys):
        assert main(["security", "--nrh", "128"]) == 0
        out = capsys.readouterr().out
        assert "PARA-Legacy pth" in out and "0.47" in out

    def test_simulate_command(self, capsys):
        assert main([
            "simulate", "--mode", "hira", "--capacity", "8",
            "--instructions", "5000",
        ]) == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out

    def test_audit_command_with_oracle(self, capsys, tmp_path):
        import json

        log = tmp_path / "audit.json"
        rules = tmp_path / "rules.json"
        assert main([
            "audit", "--mode", "hira", "--granularity", "same_bank",
            "--instructions", "3000",
            "--export-log", str(log), "--rules-out", str(rules),
        ]) == 0
        out = capsys.readouterr().out
        assert "OK: command stream clean under the oracle" in out
        payload = json.loads(log.read_text())
        assert payload["records"]
        from repro.sim.audit import records_from_log
        from repro.sim.oracle import RuleTable, TimingOracle, table_for_log

        assert TimingOracle(table_for_log(payload)).check(
            records_from_log(payload)
        ) == []
        table = RuleTable.from_json(json.loads(rules.read_text()))
        assert table.pair_rules

    def test_characterize_unknown_module(self, capsys):
        assert main(["characterize", "--module", "ZZ"]) == 2

    @pytest.mark.parametrize("flag", ["--victims", "--rows-a-step", "--stride"])
    def test_characterize_rejects_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["characterize", "--module", "A0", flag, "0"])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    #: (flag, rejected value) per option, test ids by flag.  Counts must
    #: be at least 1; tRefSlack may be 0 but never negative.
    SIZE_FLAGS = [
        ("--channels", "0"), ("--ranks", "0"), ("--instructions", "0"),
        ("--capacity", "0"), ("--slack", "-3"),
    ]
    REJECTED = ("must be at least 1", "must be greater than 0", "must be at least 0")

    @pytest.mark.parametrize(
        "flag, value", SIZE_FLAGS, ids=[flag for flag, __ in SIZE_FLAGS]
    )
    def test_simulate_rejects_zero(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert any(text in err for text in self.REJECTED)

    @pytest.mark.parametrize(
        "flag, value", SIZE_FLAGS, ids=[flag for flag, __ in SIZE_FLAGS]
    )
    def test_audit_rejects_zero(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert any(text in err for text in self.REJECTED)

    SWEEP_FLAGS = [("--mixes", "0"), ("--instructions", "0"), ("--slacks", "2,-1")]

    @pytest.mark.parametrize(
        "flag, value", SWEEP_FLAGS, ids=[flag for flag, __ in SWEEP_FLAGS]
    )
    def test_sweep_rejects_zero(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", flag, value, "--no-cache"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert any(text in err for text in self.REJECTED)

    def test_security_rejects_negative_slack(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["security", "--slack", "-5"])
        assert excinfo.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_perf_rejects_zero_reps(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "--reps", "0", "--out", ""])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_characterize_command(self, capsys):
        assert main([
            "characterize", "--module", "A0", "--stride", "256",
            "--rows-a-step", "24", "--victims", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "HiRA coverage" in out and "normalized NRH" in out

    def test_sweep_json_out_and_margin_check(self, capsys, tmp_path):
        json_path = tmp_path / "margin.json"
        assert main([
            "sweep", "--name", "t", "--modes", "baseline,hira", "--slacks", "2",
            "--capacities", "8", "--mixes", "1", "--instructions", "5000",
            "--workers", "1", "--no-cache", "--json-out", str(json_path),
        ]) == 0
        capsys.readouterr()
        import json

        payload = json.loads(json_path.read_text())
        cfgs = {cell["coords"]["cfg"] for cell in payload["cells"]}
        assert cfgs == {"baseline", "HiRA-2"}
        assert all(cell["mean_ws"] > 0 for cell in payload["cells"])

        import subprocess
        import sys

        # A floor of 0 always passes; an absurd floor must fail.
        from pathlib import Path

        script = str(Path(__file__).resolve().parent.parent / "tools" / "check_fig12_margin.py")
        ok = subprocess.run(
            [sys.executable, script, str(json_path), "--min-margin", "0.0"],
            capture_output=True, text=True,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        bad = subprocess.run(
            [sys.executable, script, str(json_path), "--min-margin", "99.0"],
            capture_output=True, text=True,
        )
        assert bad.returncode == 1
        assert "REGRESSED" in bad.stdout

    def test_sweep_notes_a_source_change_since_the_last_run(self, capsys, tmp_path):
        from repro.orchestrator import ResultCache

        store = tmp_path / "store"
        ResultCache(store, fingerprint="0" * 16).write_manifest("drift", ["aa00"])
        argv = [
            "sweep", "--name", "drift", "--modes", "baseline", "--mixes", "1",
            "--instructions", "2000", "--backend", "serial",
            "--cache-dir", str(store),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "plan: 1 points: 0 reused from the store, 1 to compute" in out
        assert "plan: simulator source changed since the last run" in out
        # The manifest now carries the live fingerprint: no note on a re-run.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "plan: 1 points: 1 reused from the store, 0 to compute" in out
        assert "source changed" not in out
        assert ResultCache(store).progress() == [("drift", 1, 1)]

    def test_status_without_a_status_file_reports_only_the_store(self, capsys, tmp_path):
        from repro.orchestrator import ResultCache

        store = tmp_path / "store"
        ResultCache(store).write_manifest("only-store", ["aa00"])
        assert main(["status", "--status-file", "", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "no status snapshot found" not in out
        assert out.splitlines() == ["store:", "  only-store: 0/1 points stored, incomplete"]
        # A named status file that cannot be read is still reported.
        assert main([
            "status", "--status-file", str(tmp_path / "missing.json"),
            "--store", str(store),
        ]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "no status snapshot found"
        # Neither a status file nor a store: nothing to report.
        assert main(["status", "--status-file", "", "--store", ""]) == 1
        assert capsys.readouterr().out == "nothing to report\n"

    def test_sweep_socket_backend_with_worker_thread(self, capsys, tmp_path):
        # The full CLI path: `repro sweep --backend socket` against an
        # in-process worker, then an overlapping re-run that
        # must reuse every shared point (cross-sweep dedup telemetry).
        import json
        import threading

        from repro.orchestrator.backends.worker import serve

        json1 = tmp_path / "one.json"
        json2 = tmp_path / "two.json"
        store = str(tmp_path / "store")
        port = _free_port()
        worker = threading.Thread(
            target=serve, args=("127.0.0.1", port),
            kwargs=dict(connect_timeout=60.0, max_sessions=2,
                        heartbeat_interval=0.2),
            daemon=True,
        )
        worker.start()
        assert main([
            "sweep", "--name", "one", "--modes", "baseline", "--capacities", "8",
            "--mixes", "1", "--instructions", "5000", "--cache-dir", store,
            "--backend", "socket", "--port", str(port),
            "--json-out", str(json1),
        ]) == 0
        assert main([
            "sweep", "--name", "two", "--modes", "baseline",
            "--capacities", "8,32", "--mixes", "1", "--instructions", "5000",
            "--cache-dir", store, "--backend", "socket", "--port", str(port),
            "--json-out", str(json2),
        ]) == 0
        out = capsys.readouterr().out
        assert "plan: 2 points: 1 reused from the store, 1 to compute" in out
        worker.join(timeout=15)
        one = json.loads(json1.read_text())
        two = json.loads(json2.read_text())
        assert one["backend"] == two["backend"] == "socket"
        assert (one["reused"], one["computed"]) == (0, 1)
        # The shared 8 Gbit point was NOT recomputed by the second sweep.
        assert (two["reused"], two["computed"]) == (1, 1)


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
