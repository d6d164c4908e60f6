"""Op-span tracing: every protocol operation becomes a timed span.

The spans themselves are recorded by the sink that owns the clock:
:class:`~repro.sim.engine.DramSink` (built with ``telemetry=``) calls
:meth:`Telemetry.record_span` from ``end_op`` with the operation's
start and duration in DRAM-model nanoseconds -- the same two floats it
attributes to ``time_by_kind``, so recording never touches the request
stream and simulation statistics stay bit-identical.

:class:`TelemetryObserver` is the observer-side half of the pair: a
:class:`~repro.oram.observer.BaseObserver` that tallies protocol events
(slot deaths, reclaims by mechanism, reshuffles by kind) into a metrics
registry. It is attached only on request -- observers make the
controller build per-read event tuples, which costs more than the
metrics themselves.

Spans are exported as Chrome trace-event JSON (the ``traceEvents``
array format), directly loadable in Perfetto / ``chrome://tracing``.
Trace-event timestamps are microseconds by convention; the nanosecond
remainder survives because ``ts``/``dur`` are floats.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.oram.observer import BaseObserver

#: One finished span: (op-kind name, start ns, duration ns).
Span = Tuple[str, float, float]


class TelemetryObserver(BaseObserver):
    """Tally controller protocol events into a metrics registry."""

    def __init__(self, registry: Any) -> None:
        self._deaths = registry.counter("events.slot_dead")
        self._reclaim_reshuffle = registry.counter("events.reclaimed.reshuffle")
        self._reclaim_remote = registry.counter("events.reclaimed.remote")
        self._evictions = registry.counter("events.evict_path")
        self._reshuffles: Dict[Any, Any] = {}
        self._registry = registry

    def on_slot_dead(self, bucket: int, slot: int, level: int) -> None:
        self._deaths.inc()

    def on_slot_reclaimed(self, bucket, slot, level, how) -> None:
        (self._reclaim_remote if how == "remote"
         else self._reclaim_reshuffle).inc()

    def on_slots_reclaimed(self, bucket, slots: Sequence[int], level, how) -> None:
        (self._reclaim_remote if how == "remote"
         else self._reclaim_reshuffle).inc(len(slots))

    def on_reshuffle(self, bucket, level, kind) -> None:
        c = self._reshuffles.get(kind)
        if c is None:
            c = self._reshuffles[kind] = self._registry.counter(
                f"events.reshuffle.{kind}"
            )
        c.inc()

    def on_evict_path(self, leaf: int) -> None:
        self._evictions.inc()


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
