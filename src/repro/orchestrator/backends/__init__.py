"""Pluggable sweep-execution backends.

- :mod:`~repro.orchestrator.backends.base` — the
  :class:`ExecutionBackend` interface, :class:`SerialBackend`, and
  :class:`LocalPoolBackend` (multiprocessing on this host).
- :mod:`~repro.orchestrator.backends.server` — :class:`SocketBackend` /
  :class:`JobServer`: a TCP job server dealing points to ``repro worker``
  daemons with registration, heartbeats, and retry-on-worker-death.
- :mod:`~repro.orchestrator.backends.dispatch` — the job server's
  dispatch policy as a pure state machine (no clock, thread or socket).
- :mod:`~repro.orchestrator.backends.worker` — the worker daemon loop.
- :mod:`~repro.orchestrator.backends.protocol` — the job protocol's
  typed messages, their length-prefixed JSON codec, and bit-exact
  ``SweepPoint`` serialization.

All backends yield ``(grid index, SimResult)`` pairs in arbitrary order;
the runner assembles them into grid order, so every backend is
bit-identical to serial execution by construction.
"""

from __future__ import annotations

import os

from repro.orchestrator.backends.base import (
    ExecutionBackend,
    LocalPoolBackend,
    SerialBackend,
)
from repro.orchestrator.backends.server import (
    JobServer,
    NoWorkersRegistered,
    SocketBackend,
    WorkerPoolError,
    spawn_local_worker,
)

#: Registry for ``--backend <name>`` / ``run_sweep(backend="<name>")``.
BACKENDS = {
    "serial": SerialBackend,
    "local": LocalPoolBackend,
    "socket": SocketBackend,
}


def make_backend(
    spec: "str | ExecutionBackend | None", workers: int | None = None
) -> tuple[ExecutionBackend, bool]:
    """Resolve a backend spec to an instance.

    Returns ``(backend, owned)``: ``owned`` is True when this call
    constructed the instance (the caller should close it after use) and
    False when the caller passed one in (its lifecycle stays theirs).
    ``None`` picks :class:`LocalPoolBackend` honouring ``workers`` —
    the historical ``run_sweep`` behaviour.  ``"socket"`` honours the
    ``REPRO_SOCKET_HOST`` / ``REPRO_SOCKET_PORT`` / ``REPRO_SPAWN_WORKERS``
    environment knobs, so e.g. figure benches can run distributed with
    ``REPRO_BACKEND=socket`` and no code changes.
    """
    if isinstance(spec, ExecutionBackend):
        return spec, False
    if spec is None or spec == "local":
        return LocalPoolBackend(workers), True
    if spec == "serial":
        return SerialBackend(), True
    if spec == "socket":
        return SocketBackend(
            host=os.environ.get("REPRO_SOCKET_HOST", "127.0.0.1"),
            port=int(os.environ.get("REPRO_SOCKET_PORT", "7781")),
            spawn_workers=int(os.environ.get("REPRO_SPAWN_WORKERS", "0")),
        ), True
    raise ValueError(f"unknown backend {spec!r}; choose from {sorted(BACKENDS)}")


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "JobServer",
    "LocalPoolBackend",
    "NoWorkersRegistered",
    "SerialBackend",
    "SocketBackend",
    "WorkerPoolError",
    "make_backend",
    "spawn_local_worker",
]
