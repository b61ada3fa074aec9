"""Fixture: a server receive under an earlier bounded timeout."""

from repro.orchestrator.backends.protocol import recv_msg


def await_result(conn, heartbeat_timeout):
    conn.settimeout(heartbeat_timeout)
    while True:
        msg = recv_msg(conn)
        if msg.get("type") == "result":
            return msg
