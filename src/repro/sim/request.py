"""Memory requests flowing from cores to the memory controller."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, eq=False)
class Request:
    """One cache-line-sized memory request.

    A request is born decoded: ``rank``/``bank``/``row`` are its DRAM
    coordinates inside the channel it is routed to (``bank`` is the
    rank-local bank id), decoded in bulk by the trace refill.
    ``complete_cycle`` is filled by the controller when the data burst
    finishes (reads) or the write is accepted.  ``rob`` carries the issuing core's ROB entry for
    reads (slotted — a request is a hot object, allocated once per LLC
    miss).

    ``seq``/``gbank``/``ggroup`` are the controller's scheduler index
    fields, assigned at enqueue: the monotonic arrival stamp (queue order
    == ascending ``seq``) plus the coordinates flattened into the
    controller's array indexes (global bank id, global bank-group id).
    ``eq=False`` keeps identity comparison (and hashing): two distinct
    requests are never interchangeable, and ``list.remove`` must drop the
    exact object.
    """

    is_write: bool
    core_id: int
    arrival_cycle: int
    rank: int
    bank: int
    row: int
    complete_cycle: int | None = None
    rob: object = None
    seq: int = 0
    gbank: int = 0
    ggroup: int = 0
