"""Fixture: each way a worker receive may be bounded or justified."""

import socket

from repro.orchestrator.backends.protocol import recv_msg


def await_welcome(sock, bound):
    sock.settimeout(bound)
    return recv_msg(sock)


def await_job(sock):
    try:
        return recv_msg(sock)
    except socket.timeout:
        return None


def await_shutdown(sock):
    # blocking-ok: TCP keepalive bounds a vanished peer.
    return recv_msg(sock)
