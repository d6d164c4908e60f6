"""One trace document: the only place a Chrome trace event is written.

Every Perfetto file -- ``simulate --trace-out``, the ``serve bench`` /
``serve chaos`` request traces, the merged fleet trace -- is built here:

- **Events.** :func:`complete_event` (``X``), :func:`instant_event`
  (``i``), :func:`flow_event` (``s`` / ``f``) and
  :func:`metadata_event` (``M``), each taking its pid. Times go in as
  simulated ns and come out as microseconds (floats, so the ns
  remainder survives); complete events also carry the exact
  ``args.start_ns`` / ``args.dur_ns``.
- **Processes.** A :class:`Process` is a pid, a ``process_name``, a
  ``{tid: label}`` track table, the op spans of tid 0 and its other
  events in the order they were emitted.
- **The document.** :func:`trace_doc` emits every process's metadata
  in pid order, then every process's events.

Everything else is a producer that hands this module processes or
events (the :class:`~repro.telemetry.handle.Telemetry` handle, the
layouts of :mod:`repro.telemetry.fleet`, the SLO engine, the pipelined
sink): a new track is a producer, never a builder. The op spans are
recorded by :class:`~repro.sim.engine.DramSink` from ``end_op`` with
the same two floats it attributes to ``time_by_kind``, so recording
never touches the request stream, and they stay ``(name, start_ns,
dur_ns)`` tuples until the document is built.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: One finished span: (op-kind name, start ns, duration ns).
Span = Tuple[str, float, float]

#: One Chrome trace event.
Event = Dict[str, Any]


def complete_event(
    name: str, cat: str, pid: int, tid: int,
    start_ns: float, dur_ns: float, args: Optional[Dict[str, Any]] = None,
) -> Event:
    """A complete ("X") span; ``args`` follow the exact ns pair."""
    full_args = {"start_ns": start_ns, "dur_ns": dur_ns}
    if args:
        full_args.update(args)
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": start_ns / 1000.0,
        "dur": dur_ns / 1000.0,
        "args": full_args,
    }


def instant_event(
    name: str, cat: str, pid: int, tid: int, ns: float,
    args: Dict[str, Any],
) -> Event:
    """A thread-scoped instant ("i") marker."""
    return {
        "name": name,
        "cat": cat,
        "ph": "i",
        "s": "t",
        "pid": pid,
        "tid": tid,
        "ts": ns / 1000.0,
        "args": args,
    }


def flow_event(
    ph: str, name: str, cat: str, flow_id: str, pid: int, tid: int,
    ns: float,
) -> Event:
    """One end of a flow binding: ``"s"`` opens ``(cat, flow_id)``,
    ``"f"`` closes it on the enclosing slice (binding point ``"e"``)."""
    event: Event = {"name": name, "cat": cat, "ph": ph}
    if ph == "f":
        event["bp"] = "e"
    event.update(id=flow_id, pid=pid, tid=tid, ts=ns / 1000.0)
    return event


def metadata_event(name: str, pid: int, tid: int, label: str) -> Event:
    """A ``process_name`` / ``thread_name`` metadata ("M") event."""
    return {
        "name": name,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": label},
    }


@dataclass
class Process:
    """One trace process: its name, tracks and events.

    ``spans`` are the op spans of tid 0 (category ``oram``), kept as
    tuples until :func:`trace_doc` builds them; ``events`` follow them
    in the order they were emitted.
    """

    pid: int
    name: str
    tracks: Dict[int, str] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)

    def span(
        self, name: str, cat: str, tid: int,
        start_ns: float, dur_ns: float, args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one complete span on ``tid`` of this process."""
        self.events.append(complete_event(
            name, cat, self.pid, tid, start_ns, dur_ns, args,
        ))


def trace_doc(
    processes: Sequence[Process], meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The Chrome trace-event document of ``processes``.

    Every process's metadata in pid order, then every process's events
    in pid order; ``meta`` becomes ``otherData``.
    """
    processes = sorted(processes, key=lambda p: p.pid)
    events: List[Event] = []
    for proc in processes:
        events.append(metadata_event("process_name", proc.pid, 0, proc.name))
        for tid, label in sorted(proc.tracks.items()):
            events.append(metadata_event("thread_name", proc.pid, tid, label))
    for proc in processes:
        for name, start_ns, dur_ns in proc.spans:
            events.append(complete_event(
                name, "oram", proc.pid, 0, start_ns, dur_ns,
            ))
        events.extend(proc.events)
    doc: Dict[str, Any] = {
        "displayTimeUnit": "ns",
        "traceEvents": events,
    }
    if meta:
        doc["otherData"] = dict(meta)
    return doc


def write_trace(
    doc: Dict[str, Any], path: str, indent: Optional[int] = 1,
) -> str:
    """Write a trace document as JSON, creating parent dirs."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=indent)
        f.write("\n")
    return path


__all__ = [
    "Event",
    "Process",
    "Span",
    "complete_event",
    "flow_event",
    "instant_event",
    "metadata_event",
    "trace_doc",
    "write_trace",
]
