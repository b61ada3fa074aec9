"""The TCP job server and the socket execution backend.

:class:`JobServer` owns a listening socket and a thread per connected
worker.  Workers register with a ``hello`` (carrying their source
fingerprint — a mismatched worker is *rejected*, because results from a
different simulator tree would break bit-identical assembly), then jobs
are dealt from a shared queue.  A worker that dies mid-job — connection
reset, clean EOF, or :attr:`heartbeat_timeout` seconds of silence — has
its job re-queued for the remaining workers with seeded exponential
backoff between attempts; a job that exhausts ``max_retries``
re-dispatches, or a worker that reports a simulation *exception*, fails
the whole sweep (the exception is deterministic — more retries cannot
help).

Hardening layers on top of that baseline:

- **Streaming results** — :meth:`JobServer.stream` yields each ``(index,
  result)`` the moment it lands, so the runner can persist completed
  points *before* the sweep finishes (crash-safety) and ``serve`` is just
  ``list(stream(...))``.
- **Straggler re-dispatch** — with ``job_deadline`` set, a job still
  in flight past the deadline is speculatively re-queued; whichever
  result lands first wins and :meth:`_record` drops the duplicate (the
  content-hash keyed store dedups on disk the same way).
- **Worker quarantine** — a circuit breaker per worker label:
  ``quarantine_threshold`` failures inside ``quarantine_window`` seconds
  stop that worker from being dealt jobs until ``quarantine_cooldown``
  passes (a flapping host can't chew through every job's retry budget).
- **Graceful degradation** — :class:`SocketBackend` (non-``strict``)
  catches the zero-workers-registered failure and falls back to
  :class:`~repro.orchestrator.backends.base.LocalPoolBackend` with a
  warning instead of failing the sweep.

Determinism: the server only transports results.  Placement back into
grid order happens in the runner keyed by each job's grid index, so the
socket backend is bit-identical to serial execution no matter how many
workers race, die, stall, or duplicate work.  The fault-injection layer
(:mod:`repro.orchestrator.faults`) wraps accepted connections when a
plan is armed — and is a no-op (one ``None`` check per connection)
otherwise.
"""

from __future__ import annotations

import os
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from typing import Iterable, Iterator

import repro.orchestrator.faults as faults
from repro.orchestrator.backends.base import (
    ExecutionBackend,
    Jobs,
    LocalPoolBackend,
)
from repro.orchestrator.backends.protocol import (
    PROTOCOL_VERSION,
    point_to_dict,
    recv_msg,
    send_msg,
)
from repro.orchestrator.cache import result_from_dict
from repro.orchestrator.hashing import source_fingerprint
from repro.sim.system import SimResult


class WorkerPoolError(RuntimeError):
    """The sweep cannot make progress (no workers, or a fatal job error)."""


class NoWorkersRegistered(WorkerPoolError):
    """Nobody ever registered: the one failure the backend can degrade
    from (run the jobs locally) without duplicating any work."""


def _bind_listener(host: str, port: int, bind_timeout: float) -> socket.socket:
    """Bind the job port, waiting out a predecessor's draining connections.

    Back-to-back sweeps on a fixed port (the normal CLI pattern) race the
    previous server's accepted sockets through FIN_WAIT — during which a
    fresh bind fails with EADDRINUSE even under SO_REUSEADDR — so retry
    on a backoff schedule with a deadline instead of failing the second
    sweep.
    """
    deadline = time.monotonic() + bind_timeout
    backoff = faults.Backoff(base=0.05, cap=1.0, seed=port)
    while True:
        try:
            return socket.create_server((host, port))
        except OSError as exc:
            if port == 0 or time.monotonic() > deadline:
                raise OSError(
                    f"could not bind job server on {host}:{port} within "
                    f"{bind_timeout:.0f}s: {exc}"
                ) from exc
            backoff.sleep()


class _Job:
    __slots__ = ("index", "payload", "attempts", "not_before", "speculated")

    def __init__(self, index: int, payload: dict):
        self.index = index
        self.payload = payload
        self.attempts = 0
        #: Earliest monotonic time this job may be dealt (retry backoff).
        self.not_before = 0.0
        #: True once a speculative copy has been re-queued (stragglers).
        self.speculated = False


class JobServer:
    """Deals sweep points to registered ``repro worker`` daemons over TCP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registration_timeout: float = 60.0,
        heartbeat_timeout: float = 30.0,
        max_retries: int = 2,
        fingerprint: str | None = None,
        bind_timeout: float = 15.0,
        job_deadline: float | None = None,
        retry_backoff: tuple[float, float] = (0.05, 1.0),
        quarantine_threshold: int = 3,
        quarantine_window: float = 30.0,
        quarantine_cooldown: float = 5.0,
        seed: int = 0,
        log=None,
    ):
        self.registration_timeout = registration_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.fingerprint = source_fingerprint() if fingerprint is None else fingerprint
        self.job_deadline = job_deadline
        self.retry_backoff = retry_backoff
        self.quarantine_threshold = quarantine_threshold
        self.quarantine_window = quarantine_window
        self.quarantine_cooldown = quarantine_cooldown
        self._log = log or (lambda message: None)
        self._retry_rng = random.Random(seed)
        self._sock = _bind_listener(host, port, bind_timeout)
        self.host, self.port = self._sock.getsockname()[:2]
        self._log(f"job server listening on {self.host}:{self.port}")
        self._lock = threading.Lock()
        self._jobs: queue.Queue[_Job] = queue.Queue()
        self._ready: queue.Queue[tuple[int, SimResult]] = queue.Queue()
        self._results: dict[int, SimResult] = {}
        self._outstanding = 0
        self._done = threading.Event()
        self._fatal: str | None = None
        self._closing = False
        self._conns: set = set()
        self.workers_seen = 0
        #: Currently registered (welcomed, not yet departed) workers.
        self._live_workers = 0
        #: Jobs currently on a worker: id(job) -> (job, started, label).
        self._inflight: dict[int, tuple[_Job, float, str]] = {}
        #: Telemetry: speculative re-dispatches, quarantine trips, retries.
        self.speculated = 0
        self.quarantined_total = 0
        self.retried = 0
        #: Optional fleet-status sink (:class:`repro.obs.fleet.FleetStatus`):
        #: when set, job lifecycle and worker events are mirrored to it.
        #: Telemetry must never break the sweep, so every call is guarded.
        self.status = None
        self._failures: dict[str, list[float]] = {}
        self._quarantine_until: dict[str, float] = {}
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        self._acceptor.start()

    def _status_event(self, method: str, *args) -> None:
        """Mirror one event to the attached fleet-status sink, if any."""
        status = self.status
        if status is None:
            return
        try:
            getattr(status, method)(*args)
        except Exception:
            pass  # status snapshots are best-effort observability

    def telemetry(self) -> dict:
        """The server's hidden counters, surfaced for ``--json-out``."""
        return {
            "workers_seen": self.workers_seen,
            "speculated": self.speculated,
            "retries": self.retried,
            "quarantined": self.quarantined_total,
        }

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, jobs: Jobs) -> list[tuple[int, SimResult]]:
        """Execute every job on the registered workers; any-order results."""
        return list(self.stream(jobs))

    def stream(self, jobs: Jobs) -> Iterator[tuple[int, SimResult]]:
        """Yield ``(index, result)`` pairs as each job completes.

        Streaming is what makes the sweep crash-safe: the runner persists
        every yielded result to the content-addressed store and the sweep
        journal immediately, so a server/runner crash loses only in-flight
        work and ``--resume`` continues from the completed points.
        """
        jobs = list(jobs)
        if not jobs:
            return
        with self._lock:
            self._results.clear()
            self._inflight.clear()
            self._outstanding = len(jobs)
            self._fatal = None
            self._done.clear()
            self._ready = queue.Queue()
        ready = self._ready
        while True:  # drain stale jobs left by an aborted previous run
            try:
                self._jobs.get_nowait()
            except queue.Empty:
                break
        for index, point in jobs:
            self._jobs.put(_Job(index, point_to_dict(point)))
        delivered = 0
        # The deadline re-arms while any worker is registered: it guards
        # both "nobody ever showed up" and "every worker died mid-sweep"
        # (without it, a re-queued job with no surviving worker would
        # leave the stream waiting forever).
        deadline = time.monotonic() + self.registration_timeout
        while delivered < len(jobs):
            if self._fatal is not None:
                raise WorkerPoolError(self._fatal)
            try:
                index, result = ready.get(timeout=0.2)
            except queue.Empty:
                with self._lock:
                    live = self._live_workers
                if live > 0:
                    deadline = time.monotonic() + self.registration_timeout
                elif time.monotonic() > deadline:
                    if self.workers_seen == 0:
                        self._fatal = (
                            f"no worker registered with {self.host}:"
                            f"{self.port} within "
                            f"{self.registration_timeout:.0f}s (start one "
                            f"with `repro worker --host {self.host} "
                            f"--port {self.port}`)"
                        )
                        raise NoWorkersRegistered(self._fatal)
                    self._fatal = (
                        f"all {self.workers_seen} registered workers left "
                        f"{self.host}:{self.port} and none returned within "
                        f"{self.registration_timeout:.0f}s; jobs remain "
                        "unfinished"
                    )
                    raise WorkerPoolError(self._fatal)
                self._check_stragglers()
                continue
            delivered += 1
            yield index, result

    def _check_stragglers(self) -> None:
        """Speculatively re-queue in-flight jobs past the deadline.

        The slow worker keeps running; whichever copy finishes first is
        recorded and the loser is dropped as a duplicate, so speculation
        can only shorten the sweep, never change its results.
        """
        if self.job_deadline is None:
            return
        now = time.monotonic()
        with self._lock:
            overdue = [
                job for job, started, __ in self._inflight.values()
                if not job.speculated
                and now - started > self.job_deadline
                and job.index not in self._results
            ]
            for job in overdue:
                job.speculated = True
                self.speculated += 1
        for job in overdue:
            self._status_event("job_speculated", str(job.index))
            clone = _Job(job.index, job.payload)
            clone.attempts = job.attempts
            clone.speculated = True  # one speculative copy per job
            self._jobs.put(clone)
            self._log(
                f"job {job.index} exceeded the {self.job_deadline:.1f}s "
                "deadline; speculatively re-dispatched"
            )

    # ------------------------------------------------------------------
    # Quarantine (circuit breaker per worker label)
    # ------------------------------------------------------------------
    def _note_failure(self, label: str) -> None:
        now = time.monotonic()
        tripped = False
        with self._lock:
            window = self._failures.setdefault(label, [])
            window.append(now)
            cutoff = now - self.quarantine_window
            while window and window[0] < cutoff:
                window.pop(0)
            if (
                len(window) >= self.quarantine_threshold
                and self._quarantine_until.get(label, 0.0) <= now
            ):
                self._quarantine_until[label] = now + self.quarantine_cooldown
                self.quarantined_total += 1
                tripped = True
                window.clear()
                self._log(
                    f"worker {label!r} quarantined for "
                    f"{self.quarantine_cooldown:.0f}s after "
                    f"{self.quarantine_threshold} failures in "
                    f"{self.quarantine_window:.0f}s"
                )
        if tripped:
            self._status_event("worker_quarantined", label)

    def _is_quarantined(self, label: str) -> bool:
        with self._lock:
            until = self._quarantine_until.get(label)
            if until is None:
                return False
            if time.monotonic() >= until:
                del self._quarantine_until[label]
                self._log(f"worker {label!r} re-admitted after cooldown")
                return False
            return True

    # ------------------------------------------------------------------
    # Worker handling (one thread per connection)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, __addr = self._sock.accept()
            except OSError:  # listening socket closed
                return
            conn = faults.wrap(conn, "server")
            threading.Thread(
                target=self._serve_worker, args=(conn,), daemon=True
            ).start()

    def _serve_worker(self, conn) -> None:
        label = "?"
        registered = False
        with self._lock:
            self._conns.add(conn)
        try:
            conn.settimeout(self.heartbeat_timeout)
            hello = recv_msg(conn)
            if not hello or hello.get("type") != "hello":
                return
            label = hello.get("worker", "?")
            if hello.get("protocol") != PROTOCOL_VERSION:
                send_msg(conn, {
                    "type": "reject",
                    "reason": f"protocol {hello.get('protocol')} != {PROTOCOL_VERSION}",
                })
                return
            if hello.get("fingerprint") != self.fingerprint:
                # A worker running different simulator source would return
                # results that are not bit-identical to serial execution.
                send_msg(conn, {
                    "type": "reject",
                    "reason": (
                        f"source fingerprint {hello.get('fingerprint')} does not "
                        f"match the server's {self.fingerprint}; update the "
                        "worker's checkout"
                    ),
                })
                return
            send_msg(conn, {"type": "welcome", "server": f"pid{os.getpid()}"})
            with self._lock:
                self.workers_seen += 1
                self._live_workers += 1
            registered = True
            self._status_event("worker_seen", label)
            self._deal_jobs(conn, label)
        except (OSError, ValueError):
            pass  # connection-level failure: any in-flight job was re-queued
        finally:
            with self._lock:
                self._conns.discard(conn)
                if registered:
                    self._live_workers -= 1
            try:
                conn.close()
            except OSError:
                pass

    def _deal_jobs(self, conn, label: str) -> None:
        while not self._closing and self._fatal is None:
            if self._is_quarantined(label):
                if self._done.is_set():
                    break
                time.sleep(0.05)
                continue
            try:
                job = self._jobs.get(timeout=0.1)
            except queue.Empty:
                if self._done.is_set():
                    break
                continue
            now = time.monotonic()
            if job.not_before > now:
                # Retry backoff not yet elapsed: put it back and let time
                # pass (another worker may pick it up once eligible).
                self._jobs.put(job)
                time.sleep(min(0.05, job.not_before - now))
                continue
            with self._lock:
                if job.index in self._results:
                    continue  # stale speculative/duplicated copy: drop it
                self._inflight[id(job)] = (job, now, label)
            try:
                send_msg(conn, {"type": "job", "id": job.index, "point": job.payload})
                self._status_event("job_dispatched", str(job.index), label)
                finished = self._await_result(conn, job, label)
            except (OSError, ValueError):
                self._requeue(job, label, "connection lost")
                return
            finally:
                with self._lock:
                    self._inflight.pop(id(job), None)
            if not finished:
                return  # worker died; job already re-queued
        try:
            send_msg(conn, {"type": "shutdown"})
        except OSError:
            pass

    def _await_result(self, conn, job: _Job, label: str) -> bool:
        """True when the job completed on this worker; False re-queues."""
        while True:
            try:
                message = recv_msg(conn)
            except socket.timeout:
                self._requeue(job, label, "heartbeat timeout")
                return False
            except (OSError, ValueError):
                self._requeue(job, label, "connection lost")
                return False
            if message is None:
                self._requeue(job, label, "EOF")
                return False
            kind = message.get("type")
            if kind == "heartbeat":
                self._status_event("worker_heartbeat", label)
                continue
            if kind == "result" and message.get("id") == job.index:
                self._record(job.index, result_from_dict(message["result"]))
                return True
            if kind == "error":
                # The simulation itself raised: deterministic, fatal.
                self._fail(
                    f"point {job.index} raised on the worker:\n{message.get('error')}"
                )
                return True
            # Anything else (stale result id after a re-queue race) is
            # ignored; the protocol is strictly request/response per worker.

    def _record(self, index: int, result: SimResult) -> None:
        with self._lock:
            if index in self._results:
                return  # duplicate completion after a speculative re-queue
            self._results[index] = result
            self._outstanding -= 1
            if self._outstanding == 0:
                self._done.set()
        self._ready.put((index, result))

    def _requeue(self, job: _Job, label: str, why: str) -> None:
        with self._lock:
            if job.index in self._results:
                return  # completed elsewhere in the meantime
        self._note_failure(label)
        job.attempts += 1
        with self._lock:
            self.retried += 1
        self._status_event("job_retried", str(job.index), job.attempts)
        if job.attempts > self.max_retries:
            self._fail(
                f"point {job.index} failed {job.attempts} times "
                f"(last: {why} on {label})"
            )
            return
        base, cap = self.retry_backoff
        with self._lock:
            jitter = 0.5 + self._retry_rng.random()
        job.not_before = time.monotonic() + min(
            cap, base * 2.0 ** (job.attempts - 1)
        ) * jitter
        self._jobs.put(job)

    def _fail(self, reason: str) -> None:
        self._fatal = reason
        self._done.set()

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closing = True
        self._done.set()
        try:
            self._sock.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                send_msg(conn, {"type": "shutdown"})
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass


class SocketBackend(ExecutionBackend):
    """Execute sweep points on ``repro worker`` daemons via a job server.

    The backend *hosts* the server (binding ``host:port``; port 0 picks an
    ephemeral port, exposed as :attr:`port`).  Workers connect inward —
    from this host or any other — so firewalled lab machines can join by
    running ``repro worker --host <server> --port <port>``.
    ``spawn_workers=N`` additionally launches N localhost worker
    subprocesses for self-contained operation.

    When *no* worker ever registers, a non-``strict`` backend warns and
    degrades to :class:`LocalPoolBackend` instead of failing the sweep
    (zero results were produced, so local execution duplicates nothing);
    ``strict=True`` — the CLI's ``--strict-backend`` — keeps the hard
    failure for setups where silent local execution would be wrong.
    """

    name = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        spawn_workers: int = 0,
        registration_timeout: float = 60.0,
        heartbeat_timeout: float = 30.0,
        max_retries: int = 2,
        job_deadline: float | None = None,
        strict: bool = False,
        fallback_workers: int | None = None,
        log=None,
    ):
        self.server = JobServer(
            host,
            port,
            registration_timeout=registration_timeout,
            heartbeat_timeout=heartbeat_timeout,
            max_retries=max_retries,
            job_deadline=job_deadline,
            log=log,
        )
        self.host, self.port = self.server.host, self.server.port
        self.strict = strict
        self.fallback_workers = fallback_workers
        #: True once a zero-worker sweep degraded to the local pool.
        self.degraded = False
        self._procs: list[subprocess.Popen] = []
        for __ in range(spawn_workers):
            self._procs.append(spawn_local_worker(self.host, self.port))

    @property
    def parallelism(self) -> int:  # type: ignore[override]
        if self.degraded:
            return LocalPoolBackend(self.fallback_workers).parallelism
        return max(1, self.server.workers_seen)

    def telemetry(self) -> dict:
        """Server counters plus the backend's degradation flag."""
        data = self.server.telemetry()
        data["degraded"] = self.degraded
        return data

    def run_jobs(self, jobs: Jobs) -> Iterable[tuple[int, SimResult]]:
        jobs = list(jobs)
        try:
            yield from self.server.stream(jobs)
        except NoWorkersRegistered as exc:
            if self.strict:
                raise
            # Zero workers registered means zero results were streamed, so
            # handing the full job list to the local pool cannot duplicate
            # work — degrade loudly instead of dying.
            print(
                f"[sweep] {exc}; degrading to the local pool backend "
                "(pass --strict-backend to fail instead)",
                file=sys.stderr,
                flush=True,
            )
            self.degraded = True
            yield from LocalPoolBackend(self.fallback_workers).run_jobs(jobs)

    def close(self) -> None:
        self.server.close()
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        self._procs.clear()


def spawn_local_worker(host: str, port: int, **popen_kwargs) -> subprocess.Popen:
    """Launch a ``repro worker`` subprocess aimed at ``host:port``.

    The child inherits this interpreter and gets the live ``repro``
    package prepended to ``PYTHONPATH`` so source checkouts work without
    installation.
    """
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--host", host, "--port", str(port),
        ],
        env=env,
        **popen_kwargs,
    )
