"""Request and fleet traces: the serving layouts of the trace builder.

Two producers hand :func:`repro.telemetry.spans.trace_doc` processes:

- **The request process** (:func:`request_process`): one served stack's
  op spans on tid 0 (``oram-ops``), its per-request lanes above
  (``requests-k``: a ``queue`` span from arrival to admission, then a
  service span named after the op until completion; overlapping
  requests take different lanes by :func:`assign_lanes`), and a
  ``resilience`` track last (degraded windows, fault / shed / timeout
  markers). :func:`request_trace_doc` is the single-stack document.
- **The fleet** (:func:`fleet_trace_doc`): each spawn-pool worker
  returns a picklable :class:`ShardFragment` stamped in its simulated
  ns. pid 0 carries the router, control-plane and SLO tracks, pid
  ``1 + shard`` that shard's request process, and a flow pair (``s`` at
  the route, ``f`` at the service start) keyed by :func:`mint_trace_id`
  binds each router decision to its service span. The id is a pure
  function of ``(seed, rid)``, so the parent tags every span at merge
  time and no tracing state crosses the process boundary.

Timestamps are simulated DRAM ns and event order is a pure function of
the inputs, so a serial and a ``--workers N`` run write byte-identical
trace files -- CI-gated like every other artifact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.telemetry.spans import (
    Event,
    Process,
    Span,
    complete_event,
    flow_event,
    instant_event,
    trace_doc,
)

#: Event categories of the request lanes and the resilience track.
CAT_QUEUE = "serve.queue"
CAT_SERVICE = "serve.oram"
CAT_RESILIENCE = "serve.resilience"

#: Event categories of the fleet-level tracks.
CAT_ROUTER = "fleet.router"
CAT_FLOW = "fleet.flow"
CAT_CONTROL = "fleet.control"

#: pid 0 thread layout: the router lane, the control-plane timeline,
#: and the SLO alert timeline.
ROUTER_TID = 0
CONTROL_TID = 1
SLO_TID = 2


def mint_trace_id(seed: int, rid: int) -> str:
    """Deterministic 64-bit trace id for one request.

    Both sides of a process boundary can mint it independently from
    the fleet seed and the request id -- the fleet-wide analogue of
    :func:`repro.parallel.executor.derive_seed`.
    """
    digest = hashlib.sha256(f"trace:{seed}:{rid}".encode()).hexdigest()
    return digest[:16]


@dataclass
class ShardFragment:
    """One shard's contribution to the merged fleet trace.

    Everything in here is stamped in the shard's simulated ns and
    picklable, so fragments cross the spawn-pool boundary unchanged.
    """

    shard: int
    completions: List[Any] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)
    #: Resilience-loop timeline events (degraded windows, fault
    #: markers) in the :mod:`repro.serve.resilience` dict shape.
    events: List[Dict[str, Any]] = field(default_factory=list)


# ----------------------------------------------------------- request lanes

def assign_lanes(completions: Sequence[Any]) -> Dict[int, int]:
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


def _resilience_track(
    events: Sequence[Dict[str, Any]], pid: int, tid: int,
) -> List[Event]:
    """Render resilience-loop events onto one timeline track.

    Degraded-mode windows become ``X`` spans (paired ``degraded_exit``
    events carry their ``enter_ns``); everything else -- fault
    injections, sheds, timeouts, fails -- becomes an instant marker at
    its simulated timestamp.
    """
    out: List[Event] = []
    for ev in events:
        kind = ev["kind"]
        args = {k: v for k, v in ev.items() if k not in ("kind", "ns")}
        if kind == "degraded_exit":
            out.append(complete_event(
                "degraded", CAT_RESILIENCE, pid, tid,
                ev["enter_ns"], ev["ns"] - ev["enter_ns"], args,
            ))
        elif kind == "degraded_enter":
            # Rendered as the paired exit's span; an unpaired enter
            # (run ended degraded) still gets a marker.
            out.append(instant_event(
                "degraded_enter", CAT_RESILIENCE, pid, tid, ev["ns"],
                {"quarantined": ev.get("quarantined", 0)},
            ))
        else:
            out.append(instant_event(
                kind, CAT_RESILIENCE, pid, tid, ev["ns"], args,
            ))
    return out


def _request_args(comp: Any) -> Dict[str, Any]:
    """The args every request span carries, in either layout."""
    return {
        "rid": comp.rid,
        "op": comp.op,
        "key": comp.key.decode("latin-1"),
        "ok": comp.ok,
        "accesses": comp.accesses,
    }


def _stack_args(comp: Any) -> Dict[str, Any]:
    """A single stack's request args: the batching outcome too."""
    return {
        **_request_args(comp),
        "dedup": comp.dedup,
        "coalesced": comp.coalesced,
    }


def request_process(
    completions: Sequence[Any],
    spans: Sequence[Span],
    resilience_events: Optional[Sequence[Dict[str, Any]]] = None,
    pid: int = 0,
    name: str = "repro-sim",
    args_of: Callable[[Any], Dict[str, Any]] = _stack_args,
    flow_ids: Optional[Mapping[int, str]] = None,
) -> Process:
    """One served stack's process: op spans, request lanes, resilience.

    ``args_of(comp)`` gives a request's span args (a non-ok ``status``
    and a ``degraded`` flag are appended). With ``flow_ids`` (rid ->
    trace id), each service span is followed by the flow finish that
    binds it to its router decision.
    """
    lanes = assign_lanes(completions)
    n_lanes = max(lanes.values(), default=-1) + 1
    proc = Process(pid, name, {0: "oram-ops"}, list(spans))
    for k in range(n_lanes):
        proc.tracks[k + 1] = f"requests-{k}"
    for comp in completions:
        tid = lanes[comp.rid] + 1
        args = args_of(comp)
        if comp.status != "ok":
            args["status"] = comp.status
        if comp.degraded:
            args["degraded"] = True
        if comp.queue_ns > 0:
            proc.span("queue", CAT_QUEUE, tid,
                      comp.arrival_ns, comp.queue_ns, args)
        proc.span(comp.op, CAT_SERVICE, tid,
                  comp.start_ns, comp.service_ns, args)
        if flow_ids is not None:
            proc.events.append(flow_event(
                "f", "req", CAT_FLOW, flow_ids[comp.rid], pid, tid,
                comp.start_ns,
            ))
    if resilience_events:
        tid = n_lanes + 1
        proc.tracks[tid] = "resilience"
        proc.events.extend(_resilience_track(resilience_events, pid, tid))
    return proc


def request_trace_doc(
    completions: Sequence[Any],
    spans: Sequence[Span],
    meta: Optional[Dict[str, Any]] = None,
    resilience_events: Optional[Sequence[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """One stack's op spans and per-request spans as one document.

    ``resilience_events`` (from
    :class:`~repro.serve.resilience.ReplayResult`) adds the resilience
    track, so the chaos timeline shows *when* serving degraded
    alongside *what* each request experienced.
    """
    return trace_doc(
        [request_process(completions, spans, resilience_events)], meta,
    )


# ------------------------------------------------------------------ fleet

def control_instants(
    control: Dict[str, Any], tid: int = CONTROL_TID,
) -> List[Event]:
    """Health-state transitions as instant events on one timeline.

    ``control`` is a :meth:`~repro.core.sharding.control.ControlPlane
    .summary` block; each transition becomes one thread-scoped instant
    named after the state entered, so Perfetto shows the fleet's
    REGISTERED -> HEALTHY -> DEGRADED -> ... story on a single track.
    """
    marks = []
    for entry in control.get("shards", []):
        for t in entry.get("transitions", []):
            marks.append((t["ns"], entry["shard"], t))
    out: List[Event] = []
    for ns, shard, t in sorted(marks, key=lambda m: (m[0], m[1])):
        out.append(instant_event(
            f"shard{shard}:{t['to']}", CAT_CONTROL, 0, tid, ns, {
                "shard": shard,
                "from": t["from"],
                "to": t["to"],
                "event": t["event"],
            },
        ))
    return out


def fleet_trace_doc(
    fragments: Sequence[ShardFragment],
    seed: int,
    meta: Optional[Dict[str, Any]] = None,
    control: Optional[Dict[str, Any]] = None,
    slo_instants: Optional[Sequence[Event]] = None,
) -> Dict[str, Any]:
    """Merge shard fragments into one deterministic Perfetto document.

    Process layout: pid 0 is the fleet front (router lane, control
    timeline, SLO alert timeline), pid ``1 + shard`` is that shard's
    request process. Every request is stitched across the boundary by
    a flow-event pair keyed on its minted trace id.
    """
    fragments = sorted(fragments, key=lambda f: f.shard)
    trace_ids = {
        comp.rid: mint_trace_id(seed, comp.rid)
        for frag in fragments for comp in frag.completions
    }
    front = Process(0, "fleet-router", {
        ROUTER_TID: "router", CONTROL_TID: "control", SLO_TID: "slo",
    })
    # Router track: every request's dispatch decision, in arrival order
    # across the whole fleet (rids are fleet-unique tie-breakers).
    routed = [
        (comp, frag.shard)
        for frag in fragments for comp in frag.completions
    ]
    routed.sort(key=lambda pair: (pair[0].arrival_ns, pair[0].rid))
    for comp, shard in routed:
        trace_id = trace_ids[comp.rid]
        front.span("route", CAT_ROUTER, ROUTER_TID, comp.arrival_ns, 0.0, {
            "trace_id": trace_id,
            "rid": comp.rid,
            "shard": shard,
            "op": comp.op,
        })
        front.events.append(flow_event(
            "s", "req", CAT_FLOW, trace_id, 0, ROUTER_TID, comp.arrival_ns,
        ))
    if control is not None:
        front.events.extend(control_instants(control))
    if slo_instants:
        front.events.extend(slo_instants)
    processes = [front]
    for frag in fragments:
        def shard_args(comp: Any, shard: int = frag.shard) -> Dict[str, Any]:
            return {
                "trace_id": trace_ids[comp.rid],
                **_request_args(comp),
                "shard": shard,
            }
        processes.append(request_process(
            frag.completions, frag.spans, frag.events,
            pid=1 + frag.shard, name=f"shard-{frag.shard}",
            args_of=shard_args, flow_ids=trace_ids,
        ))
    return trace_doc(processes, meta)


__all__ = [
    "CAT_CONTROL",
    "CAT_FLOW",
    "CAT_QUEUE",
    "CAT_RESILIENCE",
    "CAT_ROUTER",
    "CAT_SERVICE",
    "CONTROL_TID",
    "ROUTER_TID",
    "SLO_TID",
    "ShardFragment",
    "assign_lanes",
    "control_instants",
    "fleet_trace_doc",
    "mint_trace_id",
    "request_process",
    "request_trace_doc",
]
