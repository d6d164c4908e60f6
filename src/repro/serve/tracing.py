"""Per-request Perfetto traces: queueing vs. ORAM vs. DRAM time.

Extends the PR-5 op-span export with request-level tracks. The
resulting Chrome trace-event document has:

* **tid 0** (``oram-ops``): one span per protocol operation
  (``readPath`` / ``evictPath`` / ``earlyReshuffle``) from
  the stack's :class:`~repro.sim.engine.DramSink` -- where the DRAM
  time actually goes.
* **tid 1..N** (``requests-k``): per-request lanes. Each request
  contributes a ``queue`` span (cat ``serve.queue``, arrival to
  admission) and a service span named after its op (cat
  ``serve.oram``, admission to completion). Overlapping requests land
  on different lanes via greedy interval coloring, so the trace
  renders without broken nesting; a flash crowd shows up visually as
  a tall stack of busy lanes with long ``queue`` spans.

All timestamps are simulated DRAM nanoseconds, so the trace is
byte-stable across machines. Every span event carries exact
``args.start_ns``/``args.dur_ns`` and validates under
``tools/check_trace.py``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.serve.request import Completion
from repro.telemetry.spans import Span, trace_event_doc

#: Event categories for the request-level spans.
CAT_QUEUE = "serve.queue"
CAT_SERVICE = "serve.oram"
#: Category for the chaos-campaign resilience track (degraded-mode
#: windows, fault-injection markers, shed/timeout/failed instants).
CAT_RESILIENCE = "serve.resilience"


def assign_lanes(completions: Sequence[Completion]) -> Dict[int, int]:
    """Greedy interval coloring: rid -> lane with no intra-lane overlap.

    Requests are laid down in arrival order; each takes the first lane
    whose previous occupant finished by this request's arrival. The
    lane count equals the maximum number of simultaneously in-flight
    requests -- itself a useful visual of queue depth.
    """
    lane_ends: List[float] = []
    lanes: Dict[int, int] = {}
    for comp in sorted(completions, key=lambda c: (c.arrival_ns, c.rid)):
        for lane, end in enumerate(lane_ends):
            if end <= comp.arrival_ns:
                lane_ends[lane] = comp.done_ns
                lanes[comp.rid] = lane
                break
        else:
            lanes[comp.rid] = len(lane_ends)
            lane_ends.append(comp.done_ns)
    return lanes


def _x_event(
    name: str, cat: str, tid: int,
    start_ns: float, dur_ns: float, args: Dict[str, Any],
) -> Dict[str, Any]:
    full_args = {"start_ns": start_ns, "dur_ns": dur_ns}
    full_args.update(args)
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "pid": 0,
        "tid": tid,
        "ts": start_ns / 1000.0,
        "dur": dur_ns / 1000.0,
        "args": full_args,
    }


def _instant_event(
    name: str, tid: int, ts_ns: float, args: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "name": name,
        "cat": CAT_RESILIENCE,
        "ph": "i",
        "s": "t",
        "pid": 0,
        "tid": tid,
        "ts": ts_ns / 1000.0,
        "args": args,
    }


def resilience_track_events(
    events: Sequence[Dict[str, Any]], tid: int,
) -> List[Dict[str, Any]]:
    """Render resilience-loop events onto one timeline track.

    Degraded-mode windows become ``X`` spans (paired ``degraded_exit``
    events carry their ``enter_ns``); everything else -- fault
    injections, sheds, timeouts, fails -- becomes an instant marker at
    its simulated timestamp.
    """
    out: List[Dict[str, Any]] = []
    for ev in events:
        kind = ev["kind"]
        if kind == "degraded_exit":
            args = {
                k: v for k, v in ev.items() if k not in ("kind", "ns")
            }
            out.append(_x_event(
                "degraded", CAT_RESILIENCE, tid,
                ev["enter_ns"], ev["ns"] - ev["enter_ns"], args,
            ))
        elif kind == "degraded_enter":
            # Rendered as the paired exit's span; an unpaired enter
            # (run ended degraded) still gets a marker.
            out.append(_instant_event("degraded_enter", tid, ev["ns"], {
                "quarantined": ev.get("quarantined", 0),
            }))
        else:
            args = {
                k: v for k, v in ev.items() if k not in ("kind", "ns")
            }
            out.append(_instant_event(kind, tid, ev["ns"], args))
    return out


def request_trace_doc(
    completions: Sequence[Completion],
    spans: Sequence[Span],
    meta: Optional[Dict[str, Any]] = None,
    resilience_events: Optional[Sequence[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Combine op spans and per-request spans into one trace document.

    ``resilience_events`` (from
    :class:`~repro.serve.resilience.ReplayResult`) adds one more
    track carrying degraded-mode windows and fault/shed/timeout
    markers, so the chaos timeline shows *when* serving degraded
    alongside *what* each request experienced.
    """
    lanes = assign_lanes(completions)
    n_lanes = max(lanes.values(), default=-1) + 1
    track_names = {0: "oram-ops"}
    for k in range(n_lanes):
        track_names[k + 1] = f"requests-{k}"
    extra: List[Dict[str, Any]] = []
    for comp in completions:
        tid = lanes[comp.rid] + 1
        args = {
            "rid": comp.rid,
            "op": comp.op,
            "key": comp.key.decode("latin-1"),
            "ok": comp.ok,
            "accesses": comp.accesses,
            "dedup": comp.dedup,
            "coalesced": comp.coalesced,
        }
        if comp.status != "ok":
            args["status"] = comp.status
        if comp.degraded:
            args["degraded"] = True
        if comp.queue_ns > 0:
            extra.append(_x_event(
                "queue", CAT_QUEUE, tid,
                comp.arrival_ns, comp.queue_ns, args,
            ))
        extra.append(_x_event(
            comp.op, CAT_SERVICE, tid,
            comp.start_ns, comp.service_ns, args,
        ))
    if resilience_events:
        tid = n_lanes + 1
        track_names[tid] = "resilience"
        extra.extend(resilience_track_events(resilience_events, tid))
    return trace_event_doc(
        spans, meta=meta, extra_events=extra, track_names=track_names,
    )


def write_trace(doc: Dict[str, Any], path: str) -> str:
    """Write a trace document as JSON, creating parent dirs."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return path


__all__ = [
    "CAT_QUEUE",
    "CAT_RESILIENCE",
    "CAT_SERVICE",
    "assign_lanes",
    "request_trace_doc",
    "resilience_track_events",
    "write_trace",
]
