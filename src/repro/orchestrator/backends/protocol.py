"""The socket backend's wire protocol: one typed message per frame.

Every frame is a 4-byte big-endian length followed by a UTF-8 JSON
object: the message's fields plus a ``type`` naming its class in lower
case (``{"type": "job", "id": 3, "point": {...}}``).  The eight message
dataclasses below are the protocol's only description: :func:`encode`
and :func:`decode` are driven by their fields, :data:`SERVER_BOUND` and
:data:`WORKER_BOUND` give each its direction, and both endpoints match
on the decoded classes.  Anything :func:`decode` cannot turn into a
message (an unknown type, a missing or extra field, a field of the
wrong JSON type, a payload that does not convert) is a
:class:`ProtocolError`, which ends the connection it arrived on.

Sweep points travel as plain JSON (no pickling): the full
:class:`~repro.sim.config.SystemConfig` — including derived
:class:`~repro.dram.geometry.Geometry` and
:class:`~repro.dram.timing.TimingParams` — plus trace profiles, seed, and
budgets round-trip bit-exactly, so a point executes identically no matter
which host runs it.  :func:`point_from_dict`'s reconstruction is verified
by comparing content-hash keys in the backend tests.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, get_type_hints

from repro.dram.geometry import Geometry
from repro.dram.timing import TimingParams
from repro.orchestrator.cache import result_from_dict, result_to_dict
from repro.orchestrator.sweep import SweepPoint
from repro.sim.config import SystemConfig
from repro.sim.system import SimResult
from repro.sim.trace import TraceProfile

#: Protocol revision: bump on any incompatible message/serialization change.
#: :class:`Hello`'s field set stays the same across revisions, so a worker
#: of another revision still decodes as a hello and is sent a ``reject``
#: naming the mismatch, instead of having its connection dropped.
PROTOCOL_VERSION = 1

#: Upper bound on a single frame; anything larger is a corrupt stream.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(ValueError):
    """A frame that is oversized, not JSON, or not a protocol message.

    A ``ValueError`` on purpose: connection-level handlers in the server
    and worker catch ``(OSError, ValueError)``, so a corrupt stream tears
    down just that connection (re-queuing any in-flight job) instead of
    leaking a dead thread that still holds work.
    """


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Hello:
    """Registration; ``fingerprint`` is the worker's simulator source."""

    worker: str
    pid: int
    fingerprint: str
    protocol: int


@dataclass(frozen=True)
class Heartbeat:
    """Sent while idle *and* while computing: the worker is alive."""


@dataclass(frozen=True)
class Result:
    id: int
    result: SimResult


@dataclass(frozen=True)
class Error:
    """The simulation itself raised (fatal: retrying cannot help)."""

    id: int
    error: str


@dataclass(frozen=True)
class Welcome:
    server: str


@dataclass(frozen=True)
class Reject:
    """A fingerprint or protocol mismatch (fatal for the worker)."""

    reason: str


@dataclass(frozen=True)
class Job:
    """Run the sweep point at grid index ``id``."""

    id: int
    point: SweepPoint


@dataclass(frozen=True)
class Shutdown:
    """The sweep is complete."""


SERVER_BOUND = (Hello, Heartbeat, Result, Error)
WORKER_BOUND = (Welcome, Reject, Job, Shutdown)

#: Wire ``type`` -> message class.
MESSAGES: dict[str, type] = {
    cls.__name__.lower(): cls for cls in SERVER_BOUND + WORKER_BOUND
}

#: Message class -> its fields' types.
_FIELDS = {cls: get_type_hints(cls) for cls in MESSAGES.values()}


def encode(message) -> dict:
    """A message as the JSON object its frame carries."""
    data: dict[str, Any] = {"type": type(message).__name__.lower()}
    for name, kind in _FIELDS[type(message)].items():
        value = getattr(message, name)
        data[name] = _PAYLOADS[kind][0](value) if kind in _PAYLOADS else value
    return data


def decode(data):
    """The message a frame's JSON object stands for; :class:`ProtocolError`
    when it stands for none."""
    kind = data.get("type") if isinstance(data, dict) else None
    cls = MESSAGES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProtocolError(f"not a protocol message: type {kind!r}")
    hints = _FIELDS[cls]
    if data.keys() != {"type", *hints}:
        raise ProtocolError(
            f"{kind} takes fields {sorted(hints)}, got "
            f"{sorted(data.keys() - {'type'})}"
        )
    values: dict[str, Any] = {}
    for name, field_type in hints.items():
        value = data[name]
        json_type = dict if field_type in _PAYLOADS else field_type
        if type(value) is not json_type:
            raise ProtocolError(
                f"{kind}.{name} must be a JSON {json_type.__name__}, got "
                f"{type(value).__name__}"
            )
        if field_type in _PAYLOADS:
            try:
                value = _PAYLOADS[field_type][1](value)
            except (ArithmeticError, AttributeError, LookupError, TypeError,
                    ValueError) as exc:
                raise ProtocolError(
                    f"{kind}.{name} does not convert: {exc!r}") from exc
        values[name] = value
    return cls(**values)


def send_msg(
    sock: socket.socket, message, lock: threading.Lock | None = None
) -> None:
    """Send one message.  ``lock`` serializes writers sharing the socket
    (the worker's heartbeat thread writes concurrently with results)."""
    body = json.dumps(encode(message), separators=(",", ":")).encode("utf-8")
    frame = _HEADER.pack(len(body)) + body
    if lock is not None:
        with lock:
            sock.sendall(frame)
    else:
        sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None  # orderly EOF
        buf += chunk
    return bytes(buf)


def recv_msg(sock: socket.socket, *, timeout: float | None):
    """Receive one message; ``None`` on a clean EOF (peer went away).

    ``timeout`` bounds each wait for the peer's bytes (``socket.timeout``
    when it passes).  It is required: a caller that waits without bound
    passes ``None`` and says next to the call what ends the wait.
    """
    sock.settimeout(timeout)
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length)
    if body is None:
        return None
    try:
        data = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from exc
    return decode(data)


# ----------------------------------------------------------------------
# SweepPoint (de)serialization
# ----------------------------------------------------------------------
def config_to_dict(config: SystemConfig) -> dict:
    out: dict[str, object] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name in ("geometry", "timing"):
            value = asdict(value)
        out[f.name] = value
    return out


def config_from_dict(data: dict) -> SystemConfig:
    data = dict(data)
    data["geometry"] = Geometry(**data["geometry"])
    data["timing"] = TimingParams(**data["timing"])
    return SystemConfig(**data)


def point_to_dict(point: SweepPoint) -> dict:
    return {
        "sweep": point.sweep,
        "coords": [[name, value] for name, value in point.coords],
        "config": config_to_dict(point.config),
        "profiles": [asdict(p) for p in point.profiles],
        "seed": point.seed,
        "instr_budget": point.instr_budget,
        "max_cycles": point.max_cycles,
    }


def point_from_dict(data: dict) -> SweepPoint:
    return SweepPoint(
        sweep=data["sweep"],
        coords=tuple((name, value) for name, value in data["coords"]),
        config=config_from_dict(data["config"]),
        profiles=tuple(TraceProfile(**p) for p in data["profiles"]),
        seed=data["seed"],
        instr_budget=data["instr_budget"],
        max_cycles=data["max_cycles"],
    )


#: Field types that travel as a JSON object: type -> (to JSON, from JSON).
#: Any other field type (``int``, ``str``) travels as is.
_PAYLOADS: dict[type, tuple[Callable[[Any], dict], Callable[[dict], Any]]] = {
    SweepPoint: (point_to_dict, point_from_dict),
    SimResult: (result_to_dict, result_from_dict),
}
