"""Chaos suite: every distributed failure mode, replayed in virtual time.

The socket backend's policy is one pure state machine,
:class:`~repro.orchestrator.backends.dispatch.Dispatcher`.  Here a
seeded, single-thread simulator drives it with N virtual workers over
an in-memory transport that carries real protocol frames
(``send_msg``/``recv_msg``), and the server side turns messages into
events with the job server's own
:func:`~repro.orchestrator.backends.server.frame_event`.  The workers
compute real sweep points, so delivered results are compared with
serial ``run_sweep``.

Faults are enumerated, not hand-picked: each fault kind strikes every
frame index of the fault-free run, with 1 to 3 workers.  Every case
checks the same invariants: it finishes within a virtual-time bound,
delivers each point exactly once, delivers serial ``run_sweep``'s
results, and fails only where an error frame says it must.  A failing
assertion names the ``(seed, workers, frame, kind)`` that replays it
through :func:`run_case`.

``REPRO_CHAOS_SEED`` seeds the simulator (default 0); CI's
``chaos-matrix`` job runs the suite under two seeds, and
``tools/check_chaos.py`` plants one-line policy mutations the suite
must catch.  The real-socket tests at the end cover what the dispatcher
cannot see: crash-safe resume from the result store, zero-worker
degradation, and workers facing a server that never answers.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import random
import socket
import sys
import threading
import time

import pytest

from repro.orchestrator import (
    NoWorkersRegistered,
    ResultCache,
    SocketBackend,
    plan_sweep,
    result_to_dict,
    run_sweep,
)
from repro.orchestrator.backends import protocol
from repro.orchestrator.backends.dispatch import (
    Assign,
    Backoff,
    Close,
    Deliver,
    Disconnect,
    Dispatcher,
    Fail,
    Quarantine,
    Requeue,
    Shutdown,
    Speculate,
    Tick,
)
from repro.orchestrator.backends.protocol import (
    PROTOCOL_VERSION,
    recv_msg,
    send_msg,
)
from repro.orchestrator.backends.server import WorkerPoolError, frame_event
from repro.orchestrator.backends.worker import run_session, serve
from repro.orchestrator.execute import execute_point
from repro.orchestrator.hashing import source_fingerprint
from repro.orchestrator.sweep import Sweep, Variant, axis, profile_workloads
from repro.sim.trace import TraceProfile

#: CI's chaos-matrix job sweeps this over two seeds; locally it defaults
#: to seed 0 so the tier-1 run stays single-seed.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def tiny_sweep(instr: int = 2_500, name: str = "chaos", **kwargs) -> Sweep:
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


def dicts(sweep_result) -> list[dict]:
    return [result_to_dict(r) for r in sweep_result.results]


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
#: The policy every simulated case runs under (virtual seconds).
POLICY = dict(
    registration_timeout=6.0,
    heartbeat_timeout=4.0,
    max_retries=2,
    job_deadline=None,
    retry_backoff=(0.05, 1.0),
    quarantine_threshold=3,
    quarantine_window=30.0,
    quarantine_cooldown=5.0,
)
HEARTBEAT_S = 0.25
COMPUTE_S = (0.5, 1.5)
LATENCY_S = (0.001, 0.01)
#: Every case must finish within this much virtual time.
BOUND_S = 120.0
#: A crashed daemon's restart; a late worker's absence (< the
#: registration timeout); a delayed or stalled frame's hold-up (both
#: under the heartbeat timeout, the stall past the job deadline the
#: stall cases arm); a hang's length (past the heartbeat timeout, yet
#: short enough that a lone worker is back before the registration
#: timeout).
RESTART_S = 1.0
LATE_S = 0.75 * POLICY["registration_timeout"]
DELAY_S = 3.5
STALL_S = 3.0
STALL_DEADLINE_S = 2.0
SILENCE_S = 1.25 * POLICY["heartbeat_timeout"]

#: The ways a worker's send can end its connection.
DISCONNECTS = ("reset", "truncate", "corrupt", "crash")


class _Wire:
    """The socket surface ``send_msg``/``recv_msg`` use, over bytes."""

    def __init__(self, data: bytes = b""):
        self.data = data

    def settimeout(self, timeout) -> None:
        pass  # bytes in memory never keep a reader waiting

    def sendall(self, data: bytes) -> None:
        self.data += data

    def recv(self, n: int) -> bytes:
        chunk, self.data = self.data[:n], self.data[n:]
        return chunk


def _encode(message) -> bytes:
    wire = _Wire()
    send_msg(wire, message)
    return wire.data


def _decode(frame: bytes):
    """One frame as its reader sees it; ``None`` when the bytes end the
    connection (torn frame) or cannot be read (corrupt frame)."""
    try:
        return recv_msg(_Wire(frame), timeout=None)
    except ValueError:
        return None


_EXECUTED: dict = {}


def execute_memo(point):
    """What a worker returns for a job's point (memoized: every case
    re-runs the same few points)."""
    if point not in _EXECUTED:
        _EXECUTED[point] = execute_point(point)
    return _EXECUTED[point]


class VirtualWorker:
    """A ``repro worker`` daemon in virtual time: it registers, heartbeats
    every :data:`HEARTBEAT_S`, computes one job at a time, and reconnects
    at once when its session drops."""

    def __init__(self, sim: "Sim", label: str):
        self.sim = sim
        self.label = label
        self.wid: int | None = None
        self.job: int | None = None
        #: Frames sent across every session (a fault's frame index).
        self.sent = 0
        self.jobs_received = 0
        self.hung_until = 0.0
        #: In-order delivery on the current connection.
        self.arrives_after = 0.0

    @property
    def faulty(self) -> bool:
        return self is self.sim.workers[0]

    def connect(self) -> None:
        sim = self.sim
        self.wid = next(sim.wids)
        self.job = None
        self.arrives_after = 0.0
        sim.conns[self.wid] = self
        sim.labels[self.wid] = self.label
        self.send(protocol.Hello(self.label, 0, "sim", PROTOCOL_VERSION))
        sim.at(sim.now + HEARTBEAT_S, self.beat, self.wid)

    def beat(self, wid: int) -> None:
        if self.wid == wid:
            self.send(protocol.Heartbeat())
            self.sim.at(self.sim.now + HEARTBEAT_S, self.beat, wid)

    def _drop(self, back_in: float | None) -> None:
        """Close this end; the server reads EOF after the frames in flight."""
        sim, wid = self.sim, self.wid
        sim.at(max(sim.now + sim.latency(), self.arrives_after),
               sim.server_receive, wid, None)
        self.wid = self.job = None
        if back_in is not None:
            sim.at(sim.now + back_in, self.connect)

    def send(self, message) -> None:
        sim = self.sim
        if self.wid is None or sim.now < self.hung_until:
            return  # no session, or a hung process sends nothing
        self.sent += 1
        frame = _encode(message)
        hold = 0.0
        torn = False
        fault = sim.fault
        if self.faulty and fault is not None and self.sent == fault[1]:
            kind = fault[0]
            sim.struck = (type(message), self.job)
            if kind in ("reset", "crash", "late"):
                self._drop({"reset": 0.0, "crash": RESTART_S, "late": LATE_S}[kind])
                return
            if kind == "truncate":
                frame, torn = frame[: len(frame) // 2], True
            elif kind == "corrupt":
                frame = frame[:4] + bytes([frame[4] ^ 0xFF]) + frame[5:]
            elif kind in ("delay", "stall"):
                hold = DELAY_S if kind == "delay" else STALL_S
            elif kind == "silence":
                self.hung_until = sim.now + SILENCE_S
                sim.at(self.hung_until, self.wake, self.wid)
                return
            elif kind == "error" and self.job is not None:
                frame = _encode(protocol.Error(self.job, "planted failure"))
                self.job = None
                sim.error_sent = True
        self.arrives_after = max(sim.now + sim.latency() + hold,
                                 self.arrives_after)
        sim.at(self.arrives_after, sim.server_receive, self.wid, frame)
        if torn:
            self._drop(0.0)  # a torn send is the sender's last

    def wake(self, wid: int) -> None:
        """A hang ends: the session timed out on one side or the other,
        so the worker starts a fresh one."""
        if self.wid == wid:
            if wid in self.sim.conns:
                self._drop(0.0)
            else:
                self.connect()

    def receive(self, wid: int, frame: bytes) -> None:
        sim = self.sim
        if self.wid != wid or sim.now < self.hung_until:
            return
        match _decode(frame):
            case None:
                self._drop(0.0)  # a torn job frame ends the session
            case protocol.Shutdown():
                self.wid = None
            case protocol.Job(id=index, point=point):
                self.job = index
                sim.at(sim.now + sim.compute(self, index), self.finish,
                       wid, index, point)

    def hang_up(self, wid: int) -> None:
        """The server closed the connection."""
        if self.wid == wid and self.sim.now >= self.hung_until:
            self.wid = None
            self.connect()

    def finish(self, wid: int, index: int, point) -> None:
        if self.wid == wid and self.job == index:
            self.send(protocol.Result(index, execute_memo(point)))
            self.job = None


class Sim:
    """Virtual workers, an in-memory transport and the dispatcher, in one
    seeded event loop.  ``log`` is every action with its virtual time."""

    def __init__(self, seed: int, workers: int, fault=None, *, jobs,
                 compute=None, policy=None):
        self.rng = random.Random(seed)
        self.fault = fault
        self.compute = compute or (
            lambda worker, index: self.rng.uniform(*COMPUTE_S))
        self.dispatcher = Dispatcher(
            jobs, 0.0, rng=random.Random(seed), **(policy or POLICY))
        self.now = 0.0
        self._queue: list = []
        self._seq = itertools.count()
        self.wids = itertools.count()
        self.conns: dict[int, VirtualWorker] = {}
        self.labels: dict[int, str] = {}
        self.log: list[tuple[float, object]] = []
        self.delivered: dict[int, list] = {}
        self.failure: Fail | None = None
        self.struck = None
        self.error_sent = False
        self.workers = [VirtualWorker(self, f"w{i}") for i in range(workers)]
        for i, worker in enumerate(self.workers):
            self.at(0.01 * i, worker.connect)

    def latency(self) -> float:
        return self.rng.uniform(*LATENCY_S)

    def at(self, when: float, fn, *args) -> None:
        heapq.heappush(self._queue, (when, next(self._seq), fn, args))

    def run(self) -> "Sim":
        for __ in range(200_000):
            if self.dispatcher.finished or self.now > BOUND_S:
                break
            wake = self.dispatcher.next_wake(self.now)
            due = self._queue[0][0] if self._queue else float("inf")
            if wake is not None and wake <= due:
                self.now = max(self.now, wake)
                self.step(Tick())
            elif self._queue:
                self.now, __, fn, args = heapq.heappop(self._queue)
                fn(*args)
            else:
                break
        return self

    def server_receive(self, wid: int, frame: bytes | None) -> None:
        if wid not in self.conns:
            return  # the server already dropped this connection
        message = None if frame is None else _decode(frame)
        if message is None:
            worker = self.conns.pop(wid)
            if frame is not None:  # unreadable: the server hangs up
                self.at(self.now + self.latency(), worker.hang_up, wid)
        self.step(Disconnect(wid) if message is None
                  else frame_event(wid, message))

    def step(self, event) -> None:
        for action in self.dispatcher.handle(self.now, event):
            self.log.append((round(self.now, 9), action))
            if isinstance(action, Deliver):
                self.delivered.setdefault(action.index, []).append(action.result)
            elif isinstance(action, Fail):
                self.failure = action
            elif isinstance(action, Assign):
                self._send_job(action)
            elif isinstance(action, (Shutdown, Close)):
                worker = self.conns.pop(action.worker)
                if isinstance(action, Shutdown):
                    frame = _encode(protocol.Shutdown())
                    self.at(self.now + self.latency(), worker.receive,
                            action.worker, frame)
                else:
                    self.at(self.now + self.latency(), worker.hang_up,
                            action.worker)

    def _send_job(self, action: Assign) -> None:
        worker = self.conns[action.worker]
        frame = _encode(protocol.Job(action.index, action.payload))
        if worker.faulty:
            worker.jobs_received += 1
            if self.fault == ("torn-job", worker.jobs_received):
                frame = frame[: len(frame) // 2]
                self.struck = (protocol.Job, action.index)
        self.at(self.now + self.latency(), worker.receive, action.worker, frame)


SIM_SWEEP = tiny_sweep(
    name="chaos-sim",
    axes=(tiny_sweep().axes[0], axis("capacity_gbit", 8.0, 32.0)),
)
SIM_JOBS = list(enumerate(SIM_SWEEP.expand()))


def run_case(seed: int, workers: int, frame: int | None = None,
             kind: str | None = None, policy=None) -> Sim:
    """Replay one simulated case: ``kind`` (one of :data:`DISCONNECTS`,
    ``delay``, ``stall``, ``silence``, ``late`` or ``error``) strikes the
    first worker's ``frame``-th sent frame, and ``torn-job`` tears the
    ``frame``-th job frame sent to it; no fault when ``kind`` is None."""
    fault = None if kind is None else (kind, frame)
    return Sim(seed, workers, fault, jobs=SIM_JOBS, policy=policy).run()


def frames_of_fault_free_run(seed: int, workers: int, kind: str) -> int:
    clean = run_case(seed, workers)
    first = clean.workers[0]
    return first.jobs_received if kind == "torn-job" else first.sent


@pytest.fixture(scope="module")
def serial_sim():
    return dicts(run_sweep(SIM_SWEEP, backend="serial"))


def check_invariants(sim: Sim, serial: list[dict], replay: str) -> None:
    assert sim.dispatcher.finished and sim.now <= BOUND_S, (
        f"unfinished at virtual {sim.now:.1f}s; {replay}")
    for index, copies in sim.delivered.items():
        assert len(copies) == 1, f"point {index} delivered twice; {replay}"
        got = result_to_dict(copies[0])
        assert got == serial[index], f"point {index} != serial; {replay}"
    if sim.failure is None:
        assert sorted(sim.delivered) == list(range(len(serial))), replay
    else:
        assert sim.error_sent and "planted failure" in sim.failure.reason, (
            f"unjustified failure {sim.failure.reason!r}; {replay}")
    assert sim.failure is not None or not sim.error_sent, (
        f"an error frame did not fail the sweep; {replay}")


def each_case(kind: str, serial: list[dict], policy=None):
    """Every (workers, frame) case of one fault kind, checked; yields
    each finished simulation with its replay tag."""
    for workers in (1, 2, 3):
        for frame in range(1, frames_of_fault_free_run(
                CHAOS_SEED, workers, kind) + 1):
            replay = (f"replay with run_case(seed={CHAOS_SEED}, "
                      f"workers={workers}, frame={frame}, kind={kind!r})")
            sim = run_case(CHAOS_SEED, workers, frame, kind, policy)
            check_invariants(sim, serial, replay)
            yield sim, replay


def kinds_in(sim: Sim, *kinds) -> list:
    return [action for __, action in sim.log if isinstance(action, kinds)]


class TestSimulatedFaults:
    def test_fault_free_runs_deliver_serial_results(self, serial_sim):
        for workers in (1, 2, 3):
            sim = run_case(CHAOS_SEED, workers)
            check_invariants(sim, serial_sim, f"workers={workers}")
            assert not kinds_in(sim, Requeue, Speculate, Close, Quarantine)

    @pytest.mark.parametrize("kind", DISCONNECTS)
    def test_disconnect_at_every_frame_requeues(self, kind, serial_sim):
        lost = 0
        for sim, replay in each_case(kind, serial_sim):
            if sim.struck is not None and sim.struck[1] is not None:
                lost += 1
                assert kinds_in(sim, Requeue), replay
        assert lost, "no fault ever struck a job in flight"

    def test_torn_job_frame_requeues(self, serial_sim):
        cases = list(each_case("torn-job", serial_sim))
        assert cases
        for sim, replay in cases:
            assert kinds_in(sim, Requeue), replay

    def test_delayed_frames_only_slow_the_sweep(self, serial_sim):
        for sim, replay in each_case("delay", serial_sim):
            assert not kinds_in(sim, Requeue, Speculate, Close), replay

    def test_stall_past_the_job_deadline_is_speculated(self, serial_sim):
        policy = dict(POLICY, job_deadline=STALL_DEADLINE_S)
        stalled = 0
        for sim, replay in each_case("stall", serial_sim, policy):
            assert not kinds_in(sim, Requeue, Close), replay
            if sim.struck is not None and sim.struck[0] is protocol.Result:
                stalled += 1
                assert Speculate(sim.struck[1]) in kinds_in(sim, Speculate), (
                    replay)
        assert stalled, "no stall ever held a result"

    def test_silence_past_the_heartbeat_timeout_closes_and_requeues(
            self, serial_sim):
        hung = 0
        for sim, replay in each_case("silence", serial_sim):
            if sim.struck[1] is not None:  # hung holding a job
                hung += 1
                assert kinds_in(sim, Close) and kinds_in(sim, Requeue), replay
        assert hung, "no hang ever held a job"

    def test_late_registration_is_awaited(self, serial_sim):
        for sim, replay in each_case("late", serial_sim):
            assert sim.failure is None, replay

    def test_error_frame_fails_the_sweep(self, serial_sim):
        failed = sum(sim.failure is not None
                     for sim, __ in each_case("error", serial_sim))
        assert failed, "no error frame was ever sent"

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_flapping_worker_is_quarantined(self, workers, serial_sim):
        # The first worker takes a job and dies, twice: the breaker
        # (threshold 2) must bench it for the cooldown while the sweep
        # finishes, without burning every retry on the flapper.
        policy = dict(POLICY, quarantine_threshold=2, max_retries=5)
        sim = Sim(CHAOS_SEED, workers, jobs=SIM_JOBS, policy=policy)
        flapper = sim.workers[0]
        receive = flapper.receive

        def take_and_die(wid, frame):
            receive(wid, frame)
            if flapper.job is not None and flapper.jobs_received <= 2:
                flapper._drop(0.0)

        flapper.receive = take_and_die
        replay = f"seed={CHAOS_SEED}, workers={workers}, kind='flap'"
        check_invariants(sim.run(), serial_sim, replay)
        trips = [t for t, a in sim.log if a == Quarantine("w0")]
        assert trips, replay
        benched = [
            t for t, a in sim.log
            if isinstance(a, Assign) and sim.labels[a.worker] == "w0"
            and trips[0] <= t < trips[0] + policy["quarantine_cooldown"]
        ]
        assert not benched, replay

    def test_straggler_is_speculated_while_results_keep_arriving(self):
        # The first worker is alive (it heartbeats) but never finishes
        # its job; the second returns a result every 0.1 s.  The deadline
        # must fire on time, not wait for a lull in the result stream,
        # and the copy must be dealt next, not behind the backlog.
        jobs = [(i, SIM_JOBS[0][1]) for i in range(40)]
        policy = dict(POLICY, job_deadline=1.0, heartbeat_timeout=600.0)
        sim = Sim(CHAOS_SEED, 2, jobs=jobs, policy=policy,
                  compute=lambda worker, index:
                      500.0 if worker.label == "w0" else 0.1)
        sim.run()
        assert sim.failure is None and sorted(sim.delivered) == list(range(40))
        (first,) = [(t, a) for t, a in sim.log
                    if isinstance(a, Assign) and sim.labels[a.worker] == "w0"]
        spec = [t for t, a in sim.log if a == Speculate(first[1].index)]
        others = [t for t, a in sim.log
                  if isinstance(a, Deliver) and a.index != first[1].index]
        assert spec and spec[0] == pytest.approx(first[0] + 1.0)
        assert spec[0] < others[-1] - 1.0  # long before the stream ends
        copy = [t for t, a in sim.log
                if isinstance(a, Deliver) and a.index == first[1].index]
        assert copy and copy[0] - spec[0] <= 0.2

    def test_same_seed_replays_the_same_action_log(self, serial_sim):
        seeds = (CHAOS_SEED, CHAOS_SEED, CHAOS_SEED + 1)
        runs = [run_case(seed, 2, 5, "reset") for seed in seeds]
        for seed, sim in zip(seeds, runs):
            check_invariants(sim, serial_sim, f"seed={seed}")
        assert kinds_in(runs[0], Requeue)
        assert runs[0].log == runs[1].log
        assert runs[0].log != runs[2].log


# ----------------------------------------------------------------------
# Real sockets: crash-safe store + resume
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial():
    return run_sweep(tiny_sweep(), backend="serial")


class TestCrashSafetyAndResume:
    def test_interrupted_sweep_keeps_results_and_resumes(self, tmp_path, serial):
        # Phase 1: the only worker returns one result and then dies with
        # no retries left -> the sweep fails *after* one result was
        # streamed and stored.  Phase 2: a plain re-run (plan + manifest,
        # as `repro sweep` does) recomputes only the missing point.
        sweep = tiny_sweep()
        cache = ResultCache(tmp_path / "store")
        assert cache.write_manifest(sweep.name, plan_sweep(sweep, cache).keys) is None
        backend = SocketBackend(
            port=0, registration_timeout=2.0, heartbeat_timeout=5.0,
            max_retries=0, strict=True,
        )

        def doomed_worker():
            sock = socket.create_connection(("127.0.0.1", backend.port),
                                            timeout=10.0)
            send_msg(sock, protocol.Hello("chaos-doomed", 0,
                                          source_fingerprint(),
                                          PROTOCOL_VERSION))
            assert isinstance(recv_msg(sock, timeout=10.0), protocol.Welcome)
            job = recv_msg(sock, timeout=10.0)
            send_msg(sock, protocol.Result(job.id, execute_point(job.point)))
            assert isinstance(recv_msg(sock, timeout=10.0), protocol.Job)
            sock.close()  # dies holding the second job

        worker = threading.Thread(target=doomed_worker, daemon=True)
        worker.start()
        try:
            with pytest.raises(WorkerPoolError, match="failed 1 times"):
                run_sweep(sweep, cache=cache, backend=backend)
        finally:
            backend.close()
        worker.join(timeout=10)
        assert not worker.is_alive()

        assert cache.progress() == [(sweep.name, 1, 2)]
        assert len(cache) == 1  # the streamed result survived the crash

        resumed_plan = plan_sweep(sweep, cache)
        assert resumed_plan.reused == 1 and resumed_plan.computed == 1
        assert (cache.write_manifest(sweep.name, resumed_plan.keys)
                == cache.fingerprint)
        result = run_sweep(sweep, cache=cache, backend="serial",
                           plan=resumed_plan)
        assert dicts(result) == dicts(serial)
        assert cache.progress() == [(sweep.name, 2, 2)]

    def test_manifest_round_trip(self, tmp_path, serial):
        cache = ResultCache(tmp_path / "store", fingerprint="fp-old")
        assert cache.write_manifest("s", ["aa00", "bb11", "cc22"]) is None
        manifest = json.loads(cache.manifest_path("s").read_text())
        assert manifest == {"name": "s", "fingerprint": "fp-old",
                            "keys": ["aa00", "bb11", "cc22"]}
        assert cache.progress() == [("s", 0, 3)]
        cache.put("aa00", serial.results[0])
        cache.put("cc22", serial.results[1])
        assert cache.progress() == [("s", 2, 3)]
        # A re-run replaces the manifest and reports whose it replaced.
        newer = ResultCache(tmp_path / "store", fingerprint="fp-new")
        assert newer.write_manifest("s", ["aa00"]) == "fp-old"
        assert newer.progress() == [("s", 1, 1)]

    def test_manifest_path_sanitizes_sweep_names(self, tmp_path):
        path = ResultCache(tmp_path).manifest_path("fig 12/same-bank")
        assert path.parent == tmp_path / "manifests"
        assert path.name == "fig_12_same-bank.json"

    def test_manifest_is_not_counted_as_an_entry(self, tmp_path, serial):
        cache = ResultCache(tmp_path / "store")
        cache.put("aa11", serial.results[0])
        cache.write_manifest("s", ["aa11"])
        assert cache.manifest_path("s").exists()
        assert len(cache) == 1

    def test_kill_during_cache_put_leaves_no_torn_entry(
            self, tmp_path, serial, monkeypatch):
        import repro.orchestrator.atomicio as atomicio

        cache = ResultCache(tmp_path / "store")
        victim = serial.results[0]
        cache.put("aa11", victim)
        assert len(cache) == 1

        real_replace = atomicio.os.replace

        def killed(src, dst):
            raise RuntimeError("injected: killed mid-write")

        monkeypatch.setattr(atomicio.os, "replace", killed)
        with pytest.raises(RuntimeError, match="killed mid-write"):
            cache.put("bb22", victim)
        # Overwrite of an existing key dies the same way...
        with pytest.raises(RuntimeError, match="killed mid-write"):
            cache.put("aa11", victim)
        monkeypatch.setattr(atomicio.os, "replace", real_replace)

        # ...yet no torn entry exists: the new key reads as a clean miss,
        # the old key still round-trips, and the store heals on retry.
        assert len(cache) == 1
        assert cache.get("bb22") is None
        assert result_to_dict(cache.get("aa11")) == result_to_dict(victim)
        cache.put("bb22", victim)
        assert result_to_dict(cache.get("bb22")) == result_to_dict(victim)
        assert len(cache) == 2


# ----------------------------------------------------------------------
# Real sockets: degradation + registration hardening
# ----------------------------------------------------------------------
class TestDegradation:
    def test_zero_workers_degrades_to_local_pool(self, serial, capsys):
        backend = SocketBackend(port=0, registration_timeout=0.5,
                                fallback_workers=1)
        try:
            result = run_sweep(tiny_sweep(), backend=backend)
        finally:
            backend.close()
        assert backend.degraded
        assert result.backend == "socket+local-fallback"
        assert dicts(result) == dicts(serial)
        assert "--strict-backend" in capsys.readouterr().err

    def test_zero_workers_strict_raises(self):
        backend = SocketBackend(port=0, registration_timeout=0.5, strict=True)
        try:
            with pytest.raises(NoWorkersRegistered, match="no worker registered"):
                run_sweep(tiny_sweep(), backend=backend)
        finally:
            backend.close()
        assert not backend.degraded

    def test_welcomeless_server_does_not_strand_run_session(self):
        ours, theirs = socket.socketpair()
        try:
            start = time.monotonic()
            assert run_session(ours, welcome_timeout=0.3) is None
            assert time.monotonic() - start < 5.0
        finally:
            ours.close()
            theirs.close()

    def test_welcomeless_server_does_not_strand_the_daemon(self):
        # A listener that accepts TCP connections but never speaks the
        # protocol: the daemon must give up after connect_timeout instead
        # of looping phantom sessions forever.
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def mute_accept():
            while True:
                try:
                    conn, __ = listener.accept()
                except OSError:
                    return
                accepted.append(conn)  # hold it open, say nothing

        threading.Thread(target=mute_accept, daemon=True).start()
        port = listener.getsockname()[1]
        start = time.monotonic()
        total = serve("127.0.0.1", port, connect_timeout=1.5,
                      welcome_timeout=0.2, max_sessions=1)
        elapsed = time.monotonic() - start
        listener.close()
        for conn in accepted:
            conn.close()
        assert total == 0
        assert elapsed < 15.0, f"daemon stranded for {elapsed:.1f}s"


class TestSocketStress:
    def test_more_thread_workers_than_cores_under_rapid_switching(
            self, serial_sim):
        # Readers on four connections post to one inbox while the stream
        # thread runs the dispatcher: with the interpreter switching
        # threads every microsecond, a lost frame would lose a point.
        backend = SocketBackend(port=0, registration_timeout=20.0,
                                heartbeat_timeout=5.0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=serve, args=("127.0.0.1", backend.port),
                    kwargs=dict(connect_timeout=2.0, max_sessions=1,
                                heartbeat_interval=0.05, label=f"stress-{i}"),
                    daemon=True,
                )
                for i in range(4)
            ]
            for worker in workers:
                worker.start()
            result = run_sweep(SIM_SWEEP, backend=backend)
        finally:
            sys.setswitchinterval(switch)
            backend.close()
        for worker in workers:
            worker.join(timeout=15)
            assert not worker.is_alive()
        assert dicts(result) == serial_sim


class TestBackoff:
    def test_backoff_schedule(self):
        slept = []
        backoff = Backoff(0.1, 1.0, factor=2.0, rng=random.Random(5),
                          sleep=slept.append)
        delays = [backoff.next() for __ in range(5)] + [backoff.sleep()]
        assert slept == delays[-1:]
        for i, delay in enumerate(delays):
            nominal = min(1.0, 0.1 * 2.0 ** i)
            assert 0.5 * nominal <= delay < 1.5 * nominal
        again = Backoff(0.1, 1.0, factor=2.0, rng=random.Random(5),
                        sleep=slept.append)
        assert [again.next() for __ in range(6)] == delays
        backoff.reset()
        assert backoff.attempt == 0
        assert backoff.next() < 0.15  # back to the base rung

    def test_backoff_rejects_bad_params(self):
        rng, sleep = random.Random(0), (lambda delay: None)
        with pytest.raises(ValueError):
            Backoff(0.0, 1.0, rng=rng, sleep=sleep)
        with pytest.raises(ValueError):
            Backoff(1.0, 0.5, rng=rng, sleep=sleep)
        with pytest.raises(ValueError):
            Backoff(0.05, 5.0, factor=0.9, rng=rng, sleep=sleep)
