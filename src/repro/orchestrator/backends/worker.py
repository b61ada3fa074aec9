"""The ``repro worker`` daemon: executes sweep points for a job server.

A worker connects *out* to a :class:`~repro.orchestrator.backends.server
.JobServer`, registers with its source fingerprint, and then loops:
receive a job, run :func:`~repro.orchestrator.execute.execute_point`,
send the serialized :class:`~repro.sim.system.SimResult` back.  A
background thread emits heartbeats throughout — including *during* a
simulation — so the server can tell "long point" from "dead worker".

Daemon semantics: when the server disappears (sweep finished, or not yet
started), the worker keeps re-connecting until ``connect_timeout`` seconds
pass without reaching a server, so it can be started *before* the sweep
and survive *between* sweeps.  ``max_sessions`` bounds the number of
server sessions (handy in tests and CI).
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
import traceback

from repro.orchestrator.backends.dispatch import Backoff
from repro.orchestrator.backends.protocol import (
    PROTOCOL_VERSION,
    Error,
    Heartbeat,
    Hello,
    Job,
    ProtocolError,
    Reject,
    Result,
    Shutdown,
    Welcome,
    recv_msg,
    send_msg,
)
from repro.orchestrator.execute import execute_point
from repro.orchestrator.hashing import source_fingerprint


class WorkerRejected(RuntimeError):
    """The server refused registration (fingerprint/protocol mismatch)."""


def _enable_keepalive(sock: socket.socket) -> None:
    """Arm TCP keepalive so a silently vanished server host (power loss,
    network partition — no FIN/RST ever arrives) kills the blocked recv
    within ~a minute instead of stranding the daemon forever."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (("TCP_KEEPIDLE", 30), ("TCP_KEEPINTVL", 10),
                          ("TCP_KEEPCNT", 3)):
        if hasattr(socket, option):  # Linux names; best-effort elsewhere
            sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)


class _Heartbeat(threading.Thread):
    """Emits heartbeat frames until stopped; shares the socket via a lock."""

    def __init__(self, sock: socket.socket, lock: threading.Lock, interval: float):
        super().__init__(daemon=True)
        self.sock = sock
        self.lock = lock
        self.interval = interval
        self.stopped = threading.Event()

    def run(self) -> None:
        while not self.stopped.wait(self.interval):
            try:
                send_msg(self.sock, Heartbeat(), lock=self.lock)
            except OSError:
                return  # connection is gone; the main loop will notice

    def stop(self) -> None:
        self.stopped.set()


def run_session(
    sock: socket.socket,
    *,
    heartbeat_interval: float = 2.0,
    label: str | None = None,
    welcome_timeout: float = 10.0,
) -> int | None:
    """Serve one connected session until shutdown/EOF.

    Returns the number of jobs completed, or ``None`` when the server went
    away before registration finished (the connection raced a shutdown, or
    accepted the TCP connection but never answered the hello — not a real
    session either way).
    """
    lock = threading.Lock()
    send_msg(
        sock,
        Hello(
            worker=label or f"{socket.gethostname()}-{os.getpid()}",
            pid=os.getpid(),
            fingerprint=source_fingerprint(),
            protocol=PROTOCOL_VERSION,
        ),
        lock=lock,
    )
    try:
        # Registration is request/response on an idle socket: a server
        # that accepts but never welcomes (wedged accept thread, port
        # squatter) must not strand the daemon, so the wait is bounded.
        reply = recv_msg(sock, timeout=welcome_timeout)
    except (socket.timeout, ProtocolError):
        return None  # no welcome in time, or no message: reconnect
    if isinstance(reply, Reject):
        raise WorkerRejected(reply.reason)
    if not isinstance(reply, Welcome):
        # EOF, or a reply other than a welcome (e.g. the shutdown of a
        # server tearing down just as we connected, or a confused peer),
        # is not a session: reconnect instead of entering the job loop on
        # an unregistered connection.
        return None
    heartbeat = _Heartbeat(sock, lock, heartbeat_interval)
    heartbeat.start()
    done = 0
    try:
        while True:
            # Jobs arrive at the server's dealing pace (a long queue drain
            # between jobs is normal), and TCP keepalive bounds a vanished
            # peer — see _enable_keepalive.  A frame that is no message
            # raises ProtocolError, which ends the session.
            message = recv_msg(sock, timeout=None)
            match message:
                case Job(id=job_id, point=point):
                    try:
                        result = execute_point(point)
                    except Exception:
                        send_msg(sock, Error(job_id, traceback.format_exc()),
                                 lock=lock)
                        continue
                    send_msg(sock, Result(job_id, result), lock=lock)
                    done += 1
                case None | Shutdown():
                    # EOF or shutdown: the session is over.  One that ran
                    # no job was a phantom (we connected to a server that
                    # was already tearing down — back-to-back sweeps race
                    # this constantly), so it must not consume a
                    # ``max_sessions`` slot.
                    return done if done else None
                case _:
                    raise ProtocolError(
                        f"the server sent {type(message).__name__}")
    finally:
        heartbeat.stop()


def serve(
    host: str,
    port: int,
    *,
    heartbeat_interval: float = 2.0,
    connect_timeout: float = 60.0,
    max_sessions: int | None = None,
    label: str | None = None,
    welcome_timeout: float = 10.0,
    backoff_seed: int = 0,
    log=None,
) -> int:
    """The daemon loop: connect → serve a session → reconnect.

    Returns the total number of jobs executed.  Gives up (returns) when no
    server has been reachable for ``connect_timeout`` seconds; raises
    :class:`WorkerRejected` when the server refuses registration, since
    reconnecting cannot fix a source mismatch.  Reconnect spacing follows
    a seeded exponential backoff (reset after each real session) so a
    fleet of workers hammering a down server spreads out instead of
    thundering in lockstep.
    """
    emit = log or (lambda *a: None)
    total = 0
    sessions = 0
    backoff = Backoff(0.25, 5.0, rng=random.Random(backoff_seed),
                      sleep=time.sleep)
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if time.monotonic() > deadline:
                emit(f"no job server at {host}:{port} for {connect_timeout:.0f}s; exiting")
                return total
            backoff.sleep()
            continue
        _enable_keepalive(sock)
        progressed = False
        try:
            done = run_session(
                sock,
                heartbeat_interval=heartbeat_interval,
                label=label,
                welcome_timeout=welcome_timeout,
            )
            progressed = done is not None
            if done is not None:
                total += done
                sessions += 1
                emit(f"session {sessions}: executed {done} points")
        except (OSError, ValueError):
            progressed = True  # a server was really there and then dropped
            emit("session dropped; reconnecting")
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if max_sessions is not None and sessions >= max_sessions:
            return total
        if progressed:
            # Only contact with a *real* server — a welcomed session or a
            # mid-session drop — earns a fresh give-up deadline and a
            # backoff reset.  A phantom (accepted-but-silent server,
            # shutdown race) must keep eating into the current deadline,
            # or a wedged server that accepts every connect would strand
            # the daemon in a reconnect loop forever.
            backoff.reset()
            deadline = time.monotonic() + connect_timeout
        else:
            if time.monotonic() > deadline:
                emit(
                    f"no real job server at {host}:{port} for "
                    f"{connect_timeout:.0f}s (connects succeed but no "
                    "welcome); exiting"
                )
                return total
            backoff.sleep()
