"""Op-span tracing: every protocol operation becomes a timed span.

The spans themselves are recorded by the sink that owns the clock:
:class:`~repro.sim.engine.DramSink` (built with ``telemetry=``) calls
:meth:`Telemetry.record_span` from ``end_op`` with the operation's
start and duration in DRAM-model nanoseconds -- the same two floats it
attributes to ``time_by_kind``, so recording never touches the request
stream and simulation statistics stay bit-identical.

Spans are exported as Chrome trace-event JSON (the ``traceEvents``
array format), directly loadable in Perfetto / ``chrome://tracing``.
Trace-event timestamps are microseconds by convention; the nanosecond
remainder survives because ``ts``/``dur`` are floats.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: One finished span: (op-kind name, start ns, duration ns).
Span = Tuple[str, float, float]


def trace_event_doc(
    spans: Sequence[Span],
    meta: Optional[Dict[str, Any]] = None,
    extra_events: Optional[Sequence[Dict[str, Any]]] = None,
    track_names: Optional[Dict[int, str]] = None,
) -> Dict[str, Any]:
    """Build the Chrome trace-event JSON document for ``spans``.

    Every span becomes one complete ("X") event on a single
    pid/tid track; the simulated controller is sequential, so one
    timeline is the truthful rendering. ``ts``/``dur`` are in
    microseconds per the trace-event convention (sub-us resolution is
    preserved in the float); the original nanosecond values ride in
    ``args`` for tooling that wants them exact.

    ``track_names`` labels additional tids (pid 0) via ``thread_name``
    metadata events, and ``extra_events`` appends pre-built events --
    the serving harness uses both to lay per-request spans on their
    own tracks alongside the op-span timeline (tid 0).
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "args": {"name": "repro-sim"},
    }]
    for tid, track in sorted((track_names or {}).items()):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": track},
        })
    for name, start_ns, dur_ns in spans:
        events.append({
            "name": name,
            "cat": "oram",
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": start_ns / 1000.0,
            "dur": dur_ns / 1000.0,
            "args": {"start_ns": start_ns, "dur_ns": dur_ns},
        })
    if extra_events:
        events.extend(extra_events)
    doc: Dict[str, Any] = {
        "displayTimeUnit": "ns",
        "traceEvents": events,
    }
    if meta:
        doc["otherData"] = dict(meta)
    return doc
