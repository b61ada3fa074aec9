"""The TCP job server and the socket execution backend.

:class:`JobServer` is a thin I/O layer around the pure dispatch policy
in :mod:`repro.orchestrator.backends.dispatch`.  It owns a listening
socket and one reader thread per connection.  A reader admits its
worker with a :class:`~repro.orchestrator.backends.protocol.Hello`
(carrying the worker's source fingerprint — a mismatched worker is
*rejected*, because results from a different simulator tree would break
bit-identical assembly), then only receives messages and posts the
dispatcher event each stands for to one inbox; a frame that is no
server-bound message ends its connection.  Every policy decision runs
on the :meth:`JobServer.stream` thread, which feeds each event (or,
when none arrives before the dispatcher's next deadline, a tick) to a
:class:`~repro.orchestrator.backends.dispatch.Dispatcher` built for that
stream, and carries out its actions: send a job, shut down or close a
connection, yield a result, or raise.

The policy itself — seeded retry backoff for jobs lost with their
worker (EOF, reset, unreadable frame, or ``heartbeat_timeout`` seconds
of silence), the ``max_retries`` budget, the fatal simulation error,
straggler speculation (``job_deadline``), per-label quarantine, and the
registration deadline — is documented on the dispatcher.  On top of it:

- **Streaming results** — :meth:`JobServer.stream` yields each ``(index,
  result)`` the moment it lands, so the runner can persist completed
  points *before* the sweep finishes (crash-safety).
- **Graceful degradation** — :class:`SocketBackend` (non-``strict``)
  catches the zero-workers-registered failure and falls back to
  :class:`~repro.orchestrator.backends.base.LocalPoolBackend` with a
  warning instead of failing the sweep.

Determinism: the server only transports results.  Placement back into
grid order happens in the runner keyed by each job's grid index, so the
socket backend is bit-identical to serial execution no matter how many
workers race, die, stall, or duplicate work.
"""

from __future__ import annotations

import itertools
import os
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from typing import Iterable, Iterator

from repro.orchestrator.backends import protocol
from repro.orchestrator.backends.base import (
    ExecutionBackend,
    Jobs,
    LocalPoolBackend,
)
from repro.orchestrator.backends.dispatch import (
    Assign,
    Backoff,
    Close,
    Deliver,
    Disconnect,
    Dispatcher,
    Error,
    Fail,
    Heartbeat,
    Quarantine,
    Register,
    Requeue,
    Result,
    Shutdown,
    Speculate,
    Tick,
)
from repro.orchestrator.backends.protocol import (
    PROTOCOL_VERSION,
    Hello,
    ProtocolError,
    Reject,
    Welcome,
    recv_msg,
    send_msg,
)
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
    backoff = Backoff(0.05, 1.0, rng=random.Random(port), sleep=time.sleep)
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


def frame_event(worker: int, message):
    """The dispatcher event one received message stands for;
    :class:`ProtocolError` for a worker-bound one."""
    match message:
        case Hello(worker=label):
            return Register(worker, label)
        case protocol.Heartbeat():
            return Heartbeat(worker)
        case protocol.Result(id=index, result=result):
            return Result(worker, index, result)
        case protocol.Error(id=index, error=error):
            return Error(worker, index, error)
    raise ProtocolError(f"a worker sent {type(message).__name__}")


def _hang_up(conn: socket.socket) -> None:
    """End a connection from the stream thread; the reader thread that
    owns the socket wakes on it, posts the disconnect and closes it."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already gone


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
        #: Every reader's events in arrival order: ``(worker id, socket,
        #: event)``, ending with the connection's :class:`Disconnect`.
        self._inbox: queue.Queue = queue.Queue()
        #: Registered connections of the running stream: id -> (socket, label).
        self._live: dict[int, tuple[socket.socket, str]] = {}
        #: Every open connection, for :meth:`close` (set add/discard and
        #: the snapshot in close() are single atomic operations).
        self._conns: set = set()
        self.workers_seen = 0
        #: Telemetry: speculative re-dispatches, quarantine trips, retries.
        self.speculated = 0
        self.quarantined_total = 0
        self.retried = 0
        #: Optional fleet-status sink (:class:`repro.obs.fleet.FleetStatus`):
        #: when set, job lifecycle and worker events are mirrored to it.
        #: Telemetry must never break the sweep, so every call is guarded.
        self.status = None
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
    # Serving (the stream thread: every policy decision happens here)
    # ------------------------------------------------------------------
    def stream(self, jobs: Jobs) -> Iterator[tuple[int, SimResult]]:
        """Yield ``(index, result)`` pairs as each job completes.

        Streaming is what makes the sweep crash-safe: the runner persists
        every yielded result to the content-addressed store immediately, so
        a server/runner crash loses only in-flight work and re-running the
        sweep continues from the completed points.
        """
        jobs = list(jobs)
        if not jobs:
            return
        dispatcher = Dispatcher(
            jobs,
            time.monotonic(),
            rng=self._retry_rng,
            registration_timeout=self.registration_timeout,
            heartbeat_timeout=self.heartbeat_timeout,
            max_retries=self.max_retries,
            job_deadline=self.job_deadline,
            retry_backoff=self.retry_backoff,
            quarantine_threshold=self.quarantine_threshold,
            quarantine_window=self.quarantine_window,
            quarantine_cooldown=self.quarantine_cooldown,
        )
        try:
            while not dispatcher.finished:
                now = time.monotonic()
                wake = dispatcher.next_wake(now)
                try:
                    item = self._inbox.get(
                        timeout=None if wake is None else max(0.0, wake - now)
                    )
                except queue.Empty:
                    event = Tick()
                else:
                    event = self._event(*item)
                for action in dispatcher.handle(time.monotonic(), event):
                    if isinstance(action, Deliver):
                        yield action.index, action.result
                    else:
                        self._act(action)
        finally:
            # An abandoned stream releases the workers it still holds.
            for wid in list(self._live):
                self._act(Shutdown(wid))

    def _event(self, wid: int, conn: socket.socket, event):
        """Pass on one inbox event, keeping the live-connection map and the
        fleet status in step."""
        if isinstance(event, Register):
            self._live[wid] = (conn, event.label)
            self.workers_seen += 1
            self._status_event("worker_seen", event.label)
        elif isinstance(event, Heartbeat) and wid in self._live:
            self._status_event("worker_heartbeat", self._live[wid][1])
        elif isinstance(event, Disconnect):
            self._live.pop(wid, None)
        return event

    def _act(self, action) -> None:
        """Carry out one dispatcher action (every kind but Deliver)."""
        if isinstance(action, Assign):
            conn, label = self._live[action.worker]
            try:
                send_msg(conn, protocol.Job(action.index, action.payload))
            except OSError:
                _hang_up(conn)  # the reader posts the disconnect: requeue
            else:
                self._status_event("job_dispatched", str(action.index), label)
        elif isinstance(action, (Shutdown, Close)):
            conn, __ = self._live.pop(action.worker)
            if isinstance(action, Shutdown):
                try:
                    send_msg(conn, protocol.Shutdown())
                except OSError:
                    pass  # the worker is gone already
            _hang_up(conn)
        elif isinstance(action, Requeue):
            self.retried += 1
            self._status_event("job_retried", str(action.index), action.attempts)
        elif isinstance(action, Speculate):
            self.speculated += 1
            self._status_event("job_speculated", str(action.index))
            self._log(
                f"job {action.index} exceeded the {self.job_deadline:.1f}s "
                "deadline; speculatively re-dispatched"
            )
        elif isinstance(action, Quarantine):
            self.quarantined_total += 1
            self._status_event("worker_quarantined", action.label)
            self._log(
                f"worker {action.label!r} quarantined for "
                f"{self.quarantine_cooldown:.0f}s after "
                f"{self.quarantine_threshold} failures in "
                f"{self.quarantine_window:.0f}s"
            )
        elif isinstance(action, Fail):
            if action.no_workers:
                raise NoWorkersRegistered(
                    f"{action.reason} on {self.host}:{self.port} (start one "
                    f"with `repro worker --host {self.host} --port "
                    f"{self.port}`)"
                )
            raise WorkerPoolError(action.reason)

    # ------------------------------------------------------------------
    # Connections (one reader thread each: handshake, then frames only)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        for wid in itertools.count():
            try:
                conn, __addr = self._sock.accept()
            except OSError:  # listening socket closed
                return
            self._conns.add(conn)
            threading.Thread(
                target=self._read, args=(wid, conn), daemon=True
            ).start()

    def _read(self, wid: int, conn: socket.socket) -> None:
        admitted = False
        try:
            message = recv_msg(conn, timeout=self.heartbeat_timeout)
            admitted = isinstance(message, Hello) and self._admit(conn, message)
            while admitted and message is not None:
                self._inbox.put((wid, conn, frame_event(wid, message)))
                # Once admitted, silence is the dispatcher's heartbeat
                # expiry, whose Close shuts this socket down and so ends
                # the wait (close() does the same between streams).
                message = recv_msg(conn, timeout=None)
        except (OSError, ValueError):
            pass  # a dead or garbled connection ends like an EOF
        finally:
            if admitted:
                self._inbox.put((wid, conn, Disconnect(wid)))
            self._conns.discard(conn)
            conn.close()

    def _admit(self, conn: socket.socket, hello: Hello) -> bool:
        """Answer a registration: welcome, or reject a mismatched worker."""
        if hello.protocol != PROTOCOL_VERSION:
            reason = f"protocol {hello.protocol} != {PROTOCOL_VERSION}"
        elif hello.fingerprint != self.fingerprint:
            # A worker running different simulator source would return
            # results that are not bit-identical to serial execution.
            reason = (
                f"source fingerprint {hello.fingerprint} does not "
                f"match the server's {self.fingerprint}; update the "
                "worker's checkout"
            )
        else:
            send_msg(conn, Welcome(f"pid{os.getpid()}"))
            return True
        send_msg(conn, Reject(reason))
        return False

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes the acceptor
        except OSError:
            pass
        self._sock.close()
        for conn in list(self._conns):
            try:
                send_msg(conn, protocol.Shutdown())
            except OSError:
                pass
            _hang_up(conn)


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
