"""Request and completion records exchanged by the serving layers.

A :class:`Request` is one client operation with an arrival timestamp;
the clock domain is the caller's choice (simulated DRAM nanoseconds in
:mod:`repro.serve.replay`, wall nanoseconds in
:mod:`repro.serve.server`). A :class:`Completion` is the scheduler's
answer: the value (for gets), the exact service window on the same
clock, and how the request was served (its own oblivious accesses, a
dedup hit off a batch-mate's access, or a coalesced write).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Operation kinds (string constants keep records JSON-friendly).
GET = "get"
PUT = "put"
DELETE = "delete"

OPS = (GET, PUT, DELETE)

#: Completion statuses. ``OK`` is a served answer (including degraded
#: serves); the rest are the resilience layer's explicit failure modes:
#: ``TIMED_OUT`` -- the per-request deadline passed before an answer;
#: ``SHED``      -- admission control rejected the request (bounded
#:                  queue or full degraded-mode write journal);
#: ``FAILED``    -- the request-scope retry budget ran out while the
#:                  store could not serve it (degraded-mode read of a
#:                  non-resident key).
OK = "ok"
TIMED_OUT = "timed_out"
SHED = "shed"
FAILED = "failed"

STATUSES = (OK, TIMED_OUT, SHED, FAILED)


@dataclass
class Request:
    """One client operation waiting to be served."""

    rid: int
    op: str
    key: bytes
    value: Optional[bytes] = None
    arrival_ns: float = 0.0
    #: Absolute deadline on the service clock (``None`` = no deadline).
    #: Set by the resilience layer; the scheduler refuses to *start*
    #: serving a request whose deadline already passed.
    deadline_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r} (expected one of {OPS})")
        if self.op == PUT and self.value is None:
            raise ValueError(f"put request {self.rid} carries no value")


@dataclass
class Completion:
    """The scheduler's answer to one request.

    ``start_ns`` is when the operation that produced this answer began
    (for a dedup hit or coalesced write, the *shared* operation's
    start); ``done_ns`` is when the answer became available. Queueing
    time is ``start_ns - arrival_ns``, service time ``done_ns -
    start_ns``, end-to-end latency ``done_ns - arrival_ns``.
    """

    rid: int
    op: str
    key: bytes
    value: Optional[bytes]
    ok: bool
    arrival_ns: float
    start_ns: float
    done_ns: float
    accesses: int = 0
    dedup: bool = False
    coalesced: bool = False
    #: One of :data:`STATUSES`. ``ok`` covers every served answer (the
    #: boolean ``ok`` field still distinguishes hit/miss); the other
    #: values are terminal failures stamped by the resilience layer.
    status: str = OK
    #: Served without an oblivious access while the store ran degraded
    #: (stash-resident payloads or the write journal answered it).
    degraded: bool = False

    @property
    def latency_ns(self) -> float:
        return self.done_ns - self.arrival_ns

    @property
    def queue_ns(self) -> float:
        return self.start_ns - self.arrival_ns

    @property
    def service_ns(self) -> float:
        return self.done_ns - self.start_ns
