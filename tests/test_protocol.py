"""The job protocol's message table is the only description of the wire.

Every message class in :mod:`repro.orchestrator.backends.protocol`
round-trips through ``encode``/``decode``; every server-bound class is
a dispatcher event in the job server's ``frame_event``; and the worker's
``run_session`` is driven over a socketpair with every worker-bound
class.  Adding a message to the table without handling it on its
receiving side fails here.  ``TestWorkerRegistrationReply`` pins that
the worker enters its job loop only after a real welcome.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import get_type_hints

import pytest

from repro.orchestrator import result_to_dict
from repro.orchestrator.backends.dispatch import Tick
from repro.orchestrator.backends.protocol import (
    MESSAGES,
    PROTOCOL_VERSION,
    SERVER_BOUND,
    WORKER_BOUND,
    Hello,
    Job,
    ProtocolError,
    Reject,
    Result,
    Shutdown,
    Welcome,
    decode,
    encode,
    recv_msg,
    send_msg,
)
from repro.orchestrator.backends.server import frame_event
from repro.orchestrator.backends.worker import WorkerRejected, run_session
from repro.orchestrator.execute import execute_point
from repro.orchestrator.sweep import (
    Sweep,
    SweepPoint,
    Variant,
    axis,
    profile_workloads,
)
from repro.sim.system import SimResult
from repro.sim.trace import TraceProfile

POINT = Sweep(
    name="proto",
    axes=(axis("cfg", Variant.make("HiRA-2", refresh_mode="hira",
                                   tref_slack_acts=2)),),
    workloads=profile_workloads(
        [TraceProfile(f"t{i}", mpki=18.0, row_locality=0.7) for i in range(8)],
        count=1,
    ),
    instr_budget=2_000,
    max_cycles=2_000_000,
).expand()[0]


@pytest.fixture(scope="module")
def result() -> SimResult:
    return execute_point(POINT)


@pytest.fixture(scope="module")
def sample(result):
    """``sample(cls)``: an instance of any message class, its fields
    filled by type, so a class added to the table needs no new fixture."""
    values = {int: 7, str: "x", SweepPoint: POINT, SimResult: result}

    def build(cls):
        return cls(**{name: values[kind]
                      for name, kind in get_type_hints(cls).items()})

    return build


def _ids(classes) -> list[str]:
    return [cls.__name__ for cls in classes]


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------
def test_directions_partition_the_table():
    assert set(SERVER_BOUND) | set(WORKER_BOUND) == set(MESSAGES.values())
    assert not set(SERVER_BOUND) & set(WORKER_BOUND)


@pytest.mark.parametrize("cls", MESSAGES.values(), ids=_ids(MESSAGES.values()))
def test_every_message_round_trips(cls, sample):
    message = sample(cls)
    assert decode(json.loads(json.dumps(encode(message)))) == message


@pytest.mark.parametrize("data", [
    [],
    {"worker": "w"},
    {"type": "bogus"},
    {"type": ["job"]},
    {"type": "heartbeat", "extra": 1},
    {"type": "error", "error": "no id"},
    {"type": "error", "id": "3", "error": "e"},
    {"type": "error", "id": True, "error": "e"},
    {"type": "hello", "worker": "w", "pid": 0, "fingerprint": "f",
     "protocol": 1.0},
    {"type": "result", "id": 3, "result": {}},
    {"type": "result", "id": 3, "result": "x"},
    {"type": "job", "id": 3, "point": {"sweep": "s"}},
], ids=lambda data: json.dumps(data)[:40])
def test_undecodable_object_is_a_protocol_error(data):
    with pytest.raises(ProtocolError):
        decode(data)


def test_recv_msg_needs_a_timeout():
    a, b = socket.socketpair()
    try:
        with pytest.raises(TypeError):
            recv_msg(b)
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# Server side: every server-bound message is a dispatcher event
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", SERVER_BOUND, ids=_ids(SERVER_BOUND))
def test_server_bound_message_is_a_dispatcher_event(cls, sample):
    event = frame_event(5, sample(cls))
    assert not isinstance(event, Tick)
    assert event.worker == 5


@pytest.mark.parametrize("cls", WORKER_BOUND, ids=_ids(WORKER_BOUND))
def test_worker_bound_message_from_a_worker_is_a_protocol_error(cls, sample):
    with pytest.raises(ProtocolError):
        frame_event(5, sample(cls))


# ----------------------------------------------------------------------
# Worker side: run_session against a scripted server
# ----------------------------------------------------------------------
def drive(*frames):
    """Run ``run_session`` against a server that sends ``frames``
    (messages, or raw bytes) and then closes its side.  Returns what
    ``run_session`` returned (or the class it raised) and the messages
    the worker sent."""
    ours, theirs = socket.socketpair()
    try:
        for frame in frames:
            if isinstance(frame, bytes):
                theirs.sendall(frame)
            else:
                send_msg(theirs, frame)
        theirs.shutdown(socket.SHUT_WR)
        try:
            outcome = run_session(ours, heartbeat_interval=60.0,
                                  welcome_timeout=5.0)
        except (WorkerRejected, ProtocolError) as exc:
            outcome = type(exc)
        ours.shutdown(socket.SHUT_WR)  # unread frames stay unread
        sent = []
        while (message := recv_msg(theirs, timeout=5.0)) is not None:
            sent.append(message)
        assert isinstance(sent[0], Hello)
        assert sent[0].protocol == PROTOCOL_VERSION
        return outcome, sent[1:]
    finally:
        ours.close()
        theirs.close()


#: Each worker-bound class as the server's first frame: the frames that
#: follow it, what ``run_session`` returns (or raises), and the classes
#: the worker sends after its hello.  The follow-up job is run only
#: after a welcome.
SESSIONS = {
    Welcome: ([Job(7, POINT), Shutdown()], 1, [Result]),
    Reject: ([Job(7, POINT)], WorkerRejected, []),
    Job: ([Job(7, POINT)], None, []),
    Shutdown: ([Job(7, POINT)], None, []),
}


def test_session_table_covers_every_worker_bound_message():
    assert set(SESSIONS) == set(WORKER_BOUND)


@pytest.mark.parametrize("cls", WORKER_BOUND, ids=_ids(WORKER_BOUND))
def test_run_session_handles_worker_bound_message(cls, sample, result):
    follow, expected, sent_types = SESSIONS[cls]
    outcome, sent = drive(sample(cls), *follow)
    assert outcome == expected
    assert [type(message) for message in sent] == sent_types
    for message in sent:
        assert message.id == 7
        assert result_to_dict(message.result) == result_to_dict(result)


class TestWorkerRegistrationReply:
    """run_session must not enter the job loop without a real welcome."""

    def test_shutdown_as_first_reply_is_phantom_session(self):
        # A worker racing a closing server receives the broadcast shutdown
        # as its registration reply; that must read as "no session" (the
        # daemon reconnects), not as a rejection that kills it.
        assert drive(Shutdown()) == (None, [])

    def test_garbage_reply_is_phantom_session(self):
        body = json.dumps({"type": "bogus", "x": 1}).encode()
        assert drive(struct.pack(">I", len(body)) + body) == (None, [])

    def test_reject_still_raises(self):
        ours, theirs = socket.socketpair()
        try:
            send_msg(theirs, Reject("incompatible"))
            with pytest.raises(WorkerRejected, match="incompatible"):
                run_session(ours, heartbeat_interval=60.0)
        finally:
            ours.close()
            theirs.close()

    def test_undecodable_frame_in_the_job_loop_ends_the_session(self):
        # serve() catches the error and reconnects.
        body = b"{this is not json"
        outcome, sent = drive(Welcome("s"), struct.pack(">I", len(body)) + body)
        assert outcome is ProtocolError and sent == []
