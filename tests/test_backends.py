"""Execution backends: bit-identical results, retries, dedup, protocol.

The acceptance bar for the backend subsystem: Serial, LocalPool, and
Socket execution of the same sweep return bit-identical ``SimResult``
lists (checked through ``result_to_dict``), worker death re-queues jobs,
fingerprint-mismatched workers are rejected, and overlapping sweeps
sharing a result store recompute zero shared points.  Everything here
must pass on a 1-CPU runner: socket workers run as in-process threads
(plus one subprocess test), and all sweeps are tiny.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest

from repro.orchestrator import (
    LocalPoolBackend,
    SerialBackend,
    SocketBackend,
    plan_sweep,
    result_to_dict,
    run_sweep,
)
from repro.orchestrator.backends import make_backend
from repro.orchestrator.backends.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Error,
    Heartbeat,
    Hello,
    Job,
    ProtocolError,
    Reject,
    Welcome,
    point_from_dict,
    point_to_dict,
    recv_msg,
    send_msg,
)
from repro.orchestrator.backends.server import JobServer, WorkerPoolError
from repro.orchestrator.backends.worker import WorkerRejected, serve
from repro.orchestrator.hashing import source_fingerprint
from repro.orchestrator.sweep import Sweep, Variant, axis, profile_workloads
from repro.sim.trace import TraceProfile


def tiny_sweep(instr: int = 3_000, name: str = "bk", **kwargs) -> Sweep:
    profiles = [
        TraceProfile(f"t{i}", mpki=18.0, row_locality=0.7) for i in range(8)
    ]
    defaults = dict(
        name=name,
        axes=(
            axis(
                "cfg",
                Variant.make("Baseline", refresh_mode="baseline"),
                Variant.make("HiRA-2", refresh_mode="hira", tref_slack_acts=2),
            ),
        ),
        workloads=profile_workloads(profiles, count=1),
        instr_budget=instr,
        max_cycles=2_000_000,
    )
    defaults.update(kwargs)
    return Sweep(**defaults)


def worker_thread(port: int, **kwargs) -> threading.Thread:
    """A localhost ``repro worker`` running in-process (1-CPU friendly)."""
    options = dict(connect_timeout=20.0, max_sessions=1, heartbeat_interval=0.2)
    options.update(kwargs)
    thread = threading.Thread(
        target=serve, args=("127.0.0.1", port), kwargs=options, daemon=True
    )
    thread.start()
    return thread


def dicts(sweep_result) -> list[dict]:
    return [result_to_dict(r) for r in sweep_result.results]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_framing_round_trip(self):
        a, b = socket.socketpair()
        try:
            messages = [Heartbeat(), Job(3, tiny_sweep().expand()[0])]
            for message in messages:
                send_msg(a, message)
            for message in messages:
                assert recv_msg(b, timeout=5.0) == message
            a.close()
            assert recv_msg(b, timeout=5.0) is None  # clean EOF
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 1 << 31))
            with pytest.raises(ProtocolError):
                recv_msg(b, timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_point_round_trip_preserves_key(self):
        # The content-hash key folds in everything that determines the
        # SimResult, so key equality proves the JSON round trip is exact.
        for point in tiny_sweep().expand():
            clone = point_from_dict(point_to_dict(point))
            assert clone.key == point.key
            assert clone.coords == point.coords
            assert clone.config == point.config
            assert clone.profiles == point.profiles

    def test_point_round_trip_exotic_grid(self):
        sweep = tiny_sweep(
            axes=(
                axis("cfg", Variant.make("HiRA-4", refresh_mode="hira",
                                         tref_slack_acts=4)),
                axis("capacity_gbit", 32.0),
                axis("channels", 2),
                axis("para_nrh", 64.0),
                axis("refresh_granularity", "same_bank"),
            ),
        )
        for point in sweep.expand():
            assert point_from_dict(point_to_dict(point)).key == point.key


# ----------------------------------------------------------------------
# Backend equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_sweep(tiny_sweep(), backend="serial")

    def test_serial_backend_reported(self, serial):
        assert serial.backend == "serial"
        assert serial.computed == len(serial)

    def test_serial_backend_reports_one_worker(self):
        # The requested pool size must not leak into a serial run's report.
        assert run_sweep(tiny_sweep(), workers=2, backend="serial").workers == 1

    def test_local_pool_matches_serial(self, serial):
        local = run_sweep(tiny_sweep(), workers=2)
        assert local.backend == "local"
        assert local.workers == 2
        assert dicts(local) == dicts(serial)

    def test_socket_thread_worker_matches_serial(self, serial):
        backend = SocketBackend(port=0, registration_timeout=20.0,
                                heartbeat_timeout=5.0)
        thread = worker_thread(backend.port)
        try:
            via_socket = run_sweep(tiny_sweep(), backend=backend)
        finally:
            backend.close()
        thread.join(timeout=10)
        assert via_socket.backend == "socket"
        assert dicts(via_socket) == dicts(serial)

    def test_socket_subprocess_worker_matches_serial(self, serial):
        backend = SocketBackend(port=0, spawn_workers=1,
                                registration_timeout=60.0, heartbeat_timeout=10.0)
        try:
            via_socket = run_sweep(tiny_sweep(), backend=backend)
        finally:
            backend.close()
        # A refused worker would let the local-pool fallback compute the
        # same results, so the equality alone proves nothing about sockets.
        assert via_socket.backend == "socket" and not backend.degraded
        assert dicts(via_socket) == dicts(serial)

    def test_two_thread_workers_match_serial(self, serial):
        backend = SocketBackend(port=0, registration_timeout=20.0,
                                heartbeat_timeout=5.0)
        threads = [worker_thread(backend.port) for __ in range(2)]
        try:
            via_socket = run_sweep(tiny_sweep(), backend=backend)
        finally:
            backend.close()
        for thread in threads:
            thread.join(timeout=10)
        assert via_socket.backend == "socket" and not backend.degraded
        assert dicts(via_socket) == dicts(serial)

    def test_make_backend_registry(self):
        backend, owned = make_backend("serial")
        assert isinstance(backend, SerialBackend) and owned
        backend, owned = make_backend(None, workers=3)
        assert isinstance(backend, LocalPoolBackend) and backend.workers == 3
        passed = SerialBackend()
        backend, owned = make_backend(passed)
        assert backend is passed and not owned
        with pytest.raises(ValueError):
            make_backend("mainframe")


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------
def _handshake(port: int, fingerprint: str | None = None,
               protocol: int = PROTOCOL_VERSION) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    send_msg(sock, Hello(
        worker="test-evil",
        pid=0,
        fingerprint=fingerprint or source_fingerprint(),
        protocol=protocol,
    ))
    return sock


def _recv(sock: socket.socket):
    return recv_msg(sock, timeout=10.0)


class TestFailureHandling:
    def test_no_worker_registration_times_out(self):
        server = JobServer(port=0, registration_timeout=0.5)
        try:
            with pytest.raises(WorkerPoolError, match="no worker registered"):
                list(server.stream([(0, tiny_sweep().expand()[0])]))
        finally:
            server.close()

    def test_fingerprint_mismatch_rejected(self):
        server = JobServer(port=0, registration_timeout=5.0)
        try:
            sock = _handshake(server.port, fingerprint="deadbeefdeadbeef")
            with pytest.raises(WorkerRejected, match="fingerprint"):
                run_session_welcome(sock)
        finally:
            server.close()

    def test_protocol_mismatch_rejected(self):
        # A worker of another protocol revision still decodes as a hello
        # (its field set never changes), so it is told why it is refused.
        server = JobServer(port=0, registration_timeout=5.0)
        try:
            sock = _handshake(server.port, protocol=PROTOCOL_VERSION + 1)
            with pytest.raises(WorkerRejected, match="protocol"):
                run_session_welcome(sock)
        finally:
            server.close()

    def test_worker_death_requeues_job(self):
        # An evil worker registers, accepts the first job, and drops the
        # connection without answering; a healthy worker must finish the
        # sweep and the assembled results must still match serial.
        sweep = tiny_sweep()
        serial = run_sweep(sweep, backend="serial")
        backend = SocketBackend(port=0, registration_timeout=20.0,
                                heartbeat_timeout=5.0, max_retries=2)

        died = threading.Event()

        def evil_worker():
            sock = _handshake(backend.port)
            assert isinstance(_recv(sock), Welcome)
            assert isinstance(_recv(sock), Job)  # take a job...
            sock.close()  # ...and die holding it
            died.set()

        evil = threading.Thread(target=evil_worker, daemon=True)
        evil.start()
        result_box = {}

        def run():
            result_box["result"] = run_sweep(sweep, backend=backend)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        assert died.wait(timeout=15), "evil worker never got a job"
        healthy = worker_thread(backend.port)
        runner.join(timeout=60)
        backend.close()
        healthy.join(timeout=10)
        assert not runner.is_alive(), "sweep did not recover from worker death"
        assert dicts(result_box["result"]) == dicts(serial)

    def test_all_workers_dying_fails_instead_of_hanging(self):
        # One worker registers, takes the job, and dies; nobody replaces
        # it.  serve() must give up after the (re-armed) registration
        # timeout rather than wait on the re-queued job forever.
        server = JobServer(port=0, registration_timeout=1.0,
                           heartbeat_timeout=5.0, max_retries=5)
        point = tiny_sweep().expand()[0]

        def doomed_worker():
            sock = _handshake(server.port)
            assert isinstance(_recv(sock), Welcome)
            _recv(sock)  # accept the job...
            sock.close()  # ...and die; retries remain but workers don't

        threading.Thread(target=doomed_worker, daemon=True).start()
        try:
            with pytest.raises(WorkerPoolError, match="registered workers left"):
                list(server.stream([(0, point)]))
        finally:
            server.close()

    def test_job_exhausting_retries_fails_the_sweep(self):
        server = JobServer(port=0, registration_timeout=10.0,
                           heartbeat_timeout=5.0, max_retries=0)
        point = tiny_sweep().expand()[0]

        def one_shot_evil():
            sock = _handshake(server.port)
            assert isinstance(_recv(sock), Welcome)
            _recv(sock)  # the job
            sock.close()

        threading.Thread(target=one_shot_evil, daemon=True).start()
        try:
            with pytest.raises(WorkerPoolError, match="failed"):
                list(server.stream([(0, point)]))
        finally:
            server.close()

    def test_worker_error_report_is_fatal(self):
        # A simulation exception on the worker is deterministic: the
        # server must fail the sweep with the traceback, not retry.
        server = JobServer(port=0, registration_timeout=10.0,
                           heartbeat_timeout=5.0)
        point = tiny_sweep().expand()[0]

        def erroring_worker():
            sock = _handshake(server.port)
            assert isinstance(_recv(sock), Welcome)
            job = _recv(sock)
            send_msg(sock, Error(job.id, "ValueError: planted failure"))
            _recv(sock)

        threading.Thread(target=erroring_worker, daemon=True).start()
        try:
            with pytest.raises(WorkerPoolError, match="planted failure"):
                list(server.stream([(0, point)]))
        finally:
            server.close()


class TestProtocolRobustness:
    """Corrupt length-prefixed frames from a worker must tear down that
    connection (re-queuing any in-flight job) — never hang the
    ``JobServer`` or fail a sweep that has a healthy worker left."""

    def _sweep_past_evil(self, evil_after_job, max_retries=2):
        sweep = tiny_sweep()
        serial = run_sweep(sweep, backend="serial")
        backend = SocketBackend(port=0, registration_timeout=20.0,
                                heartbeat_timeout=5.0, max_retries=max_retries)
        sent = threading.Event()

        def evil_worker():
            sock = _handshake(backend.port)
            assert isinstance(_recv(sock), Welcome)
            job = _recv(sock)  # take a job...
            assert isinstance(job, Job)
            try:
                evil_after_job(sock, job)  # ...and answer with a corrupt frame
            finally:
                sent.set()

        threading.Thread(target=evil_worker, daemon=True).start()
        result_box = {}

        def run():
            result_box["result"] = run_sweep(sweep, backend=backend)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        assert sent.wait(timeout=15), "evil worker never got a job"
        healthy = worker_thread(backend.port)
        runner.join(timeout=60)
        backend.close()
        healthy.join(timeout=10)
        assert not runner.is_alive(), "sweep hung after a corrupt frame"
        assert dicts(result_box["result"]) == dicts(serial)

    def test_truncated_frame_requeues_job(self):
        def evil(sock, job):
            # Header promises 4 KiB, the body stops after 16 bytes.
            sock.sendall(struct.pack(">I", 4096) + b"x" * 16)
            sock.close()

        self._sweep_past_evil(evil)

    def test_garbage_json_frame_requeues_job(self):
        def evil(sock, job):
            body = b"{this is not json"
            sock.sendall(struct.pack(">I", len(body)) + body)
            # The socket stays open: the server must tear it down anyway.

        self._sweep_past_evil(evil)

    def test_oversized_frame_requeues_job(self):
        def evil(sock, job):
            # The header alone exceeds the frame cap; no body ever follows,
            # so a server that tried to read it would block forever.
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))

        self._sweep_past_evil(evil)

    def test_malformed_result_payload_requeues_job(self):
        def evil(sock, job):
            # Well-formed JSON for the job it was dealt, but the result
            # is no SimResult: the connection ends, the sweep goes on.
            body = json.dumps(
                {"type": "result", "id": job.id, "result": {}}).encode()
            sock.sendall(struct.pack(">I", len(body)) + body)

        self._sweep_past_evil(evil)

    def test_garbage_hello_never_registers(self):
        server = JobServer(port=0, registration_timeout=5.0)
        sock = None
        try:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
            body = b"\xff\xfe not a hello"
            sock.sendall(struct.pack(">I", len(body)) + body)
            try:
                reply = sock.recv(1)  # server drops the connection: EOF
            except socket.timeout:
                reply = None
            assert not reply, "server answered a garbage hello"
            assert server.workers_seen == 0
        finally:
            if sock is not None:
                sock.close()
            server.close()


def run_session_welcome(sock: socket.socket):
    """Read the registration response the way the worker daemon does."""
    reply = _recv(sock)
    if isinstance(reply, Reject):
        raise WorkerRejected(reply.reason)
    return reply


# ----------------------------------------------------------------------
# Cross-sweep dedup + incremental regeneration
# ----------------------------------------------------------------------
class TestDedupAndIncremental:
    def test_overlapping_sweeps_share_the_store(self, tmp_path):
        store = tmp_path / "store"
        first = run_sweep(tiny_sweep(name="first"), backend="serial", cache=store)
        assert (first.reused, first.computed) == (0, len(first))
        # A *different* sweep whose grid supersets the first: the shared
        # points must replay from the store — zero recomputation.
        wider = tiny_sweep(
            name="second",
            axes=(
                tiny_sweep().axes[0],
                axis("capacity_gbit", 8.0, 32.0),
            ),
        )
        second = run_sweep(wider, backend="serial", cache=store)
        assert second.reused == len(first)
        assert second.computed == len(second) - len(first)
        # Shared cells carry identical results; only the per-sweep stamps
        # (sweep name and grid coordinates) differ.
        shared = second.select(capacity_gbit=8.0)
        for (fp, fr), (sp, sr) in zip(first, shared):
            assert fp.key == sp.key
            fd, sd = result_to_dict(fr), result_to_dict(sr)
            assert fd["meta"].pop("sweep") == "first"
            assert sd["meta"].pop("sweep") == "second"
            fd["meta"].pop("coords"), sd["meta"].pop("coords")
            assert fd == sd

    def test_plan_sweep_diffs_grid_against_store(self, tmp_path):
        store = tmp_path / "store"
        sweep = tiny_sweep()
        cold_plan = plan_sweep(sweep, store)
        assert (cold_plan.reused, cold_plan.computed) == (0, len(cold_plan.points))
        run_sweep(sweep, backend="serial", cache=store)
        warm_plan = plan_sweep(sweep, store)
        assert (warm_plan.reused, warm_plan.computed) == (len(warm_plan.points), 0)
        assert "0 to compute" in warm_plan.describe()

    def test_incremental_run_dispatches_only_missing(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(tiny_sweep(), backend="serial", cache=store)
        wider = tiny_sweep(
            name="wider",
            axes=(tiny_sweep().axes[0], axis("capacity_gbit", 8.0, 32.0)),
        )
        plan = plan_sweep(wider, store)
        assert plan.computed == 2  # only the 32 Gbit cells
        result = run_sweep(wider, backend="serial", cache=store, plan=plan)
        assert result.reused == 2 and result.computed == 2
        # The hit telemetry must reflect the caller's plan, not read as a
        # cold run just because the plan consumed the hits pre-call.
        assert result.cache_hits == 2 and result.cache_misses == 2
        assert all(r is not None for r in result.results)

    def test_fully_cached_run_never_builds_a_backend(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(tiny_sweep(), backend="serial", cache=store)

        class Exploding(SerialBackend):
            def run_jobs(self, jobs):
                raise AssertionError("backend used despite full store hit")

        warm = run_sweep(tiny_sweep(), backend=Exploding(), cache=store)
        assert warm.computed == 0 and warm.reused == len(warm)
