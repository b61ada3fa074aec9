"""Fixture: worker receives that nothing bounds."""

from repro.orchestrator.backends.protocol import recv_msg


def await_welcome(sock):
    # BAD: no timeout at all — a server that accepts but never welcomes
    # strands the worker here.
    return recv_msg(sock)


def await_job(sock):
    sock.settimeout(5.0)
    sock.settimeout(None)
    # BAD: the last timeout set before the receive lifts the bound.
    return recv_msg(sock)
