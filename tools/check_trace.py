#!/usr/bin/env python
"""Validate a Chrome trace-event JSON file written by ``--trace-out``.

A schema checker for the telemetry smoke gate: loads the trace, checks
the document shape (``traceEvents`` array, ``displayTimeUnit``), checks
every event against the trace-event format rules the builder in
``repro.telemetry.spans`` promises (complete "X" events with finite
non-negative ``ts``/``dur``, matching finite
``args.start_ns``/``args.dur_ns``; thread-scoped "i" instants for the
resilience timeline and SLO alert markers; "s"/"f" flow-event pairs
stitching router decisions to shard-side service spans), and optionally
requires specific operation kinds (``--require-kinds readPath``),
matched flow bindings (``--require-flows N``) or named process tracks
(``--require-process fleet-router shard-0``) to be present.

Every number the rules read must be finite: NaN and +-Infinity (which
Python's ``json`` reads and writes) are findings, as in the report
kernel. A malformed event -- a non-dict ``args``, a string ns field, a
list flow ``id`` -- is one finding line too, not a traceback.

Flow rules for merged fleet traces: every flow event needs a ``name``,
a string or integer ``cat`` and ``id``, and a finite non-negative
``ts``; a finish ("f") must reference a ``(cat, id)`` some start ("s")
opened, and every pid that carries X/i events must be named by a
``process_name`` metadata event.

Dependency-free by design so it runs in any environment CI does; also
importable (``validate_trace``) from the test suite.

Usage: ``python tools/check_trace.py TRACE.json
[--require-kinds KIND ...] [--min-spans N] [--require-flows N]
[--require-process NAME ...]`` -- exits non-zero with one line per
finding when the trace is invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Sequence

#: Fields every complete ("X") span event must carry.
_SPAN_FIELDS = ("name", "ph", "pid", "tid", "ts", "dur")

#: Fields every flow ("s"/"f") event must carry.
_FLOW_FIELDS = ("name", "cat", "id", "pid", "tid", "ts")


def _finite(value: Any) -> bool:
    """A JSON number that is neither NaN nor +-Infinity (bools are not)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_span(event: Dict[str, Any], where: str, errors: List[str]) -> None:
    for field in _SPAN_FIELDS:
        if field not in event:
            errors.append(f"{where}: missing field {field!r}")
            return
    for field in ("ts", "dur"):
        value = event[field]
        if not _finite(value):
            errors.append(f"{where}: {field} must be a finite number, "
                          f"got {value!r}")
            return
        if value < 0:
            errors.append(f"{where}: {field} is negative ({value})")
    args = event.get("args")
    if not isinstance(args, dict):
        errors.append(f"{where}: span events must carry an args dict")
        return
    for ns_key, us_key in (("start_ns", "ts"), ("dur_ns", "dur")):
        if ns_key not in args:
            errors.append(f"{where}: args missing {ns_key!r}")
            continue
        if not _finite(args[ns_key]):
            errors.append(f"{where}: args.{ns_key} must be a finite "
                          f"number, got {args[ns_key]!r}")
            continue
        expect = args[ns_key] / 1000.0
        if abs(event[us_key] - expect) > 1e-6:
            errors.append(
                f"{where}: {us_key}={event[us_key]} does not match "
                f"args.{ns_key}={args[ns_key]} (expected {expect})"
            )


def _check_flow(event: Dict[str, Any], where: str, errors: List[str]) -> bool:
    """Check one flow event; False when it cannot key a binding."""
    for field in _FLOW_FIELDS:
        if field not in event:
            errors.append(f"{where}: flow event missing field {field!r}")
            return False
    for field in ("cat", "id"):
        value = event[field]
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            errors.append(f"{where}: flow {field} must be a string or "
                          f"integer, got {value!r}")
            return False
    ts = event["ts"]
    if not _finite(ts) or ts < 0:
        errors.append(f"{where}: flow ts must be a finite non-negative "
                      f"number, got {ts!r}")
    if event["ph"] == "f" and event.get("bp") not in (None, "e"):
        errors.append(f"{where}: flow finish binding point must be 'e' "
                      f"when present, got {event.get('bp')!r}")
    return True


def validate_trace(
    doc: Any,
    require_kinds: Sequence[str] = (),
    min_spans: int = 1,
    require_flows: int = 0,
    require_process: Sequence[str] = (),
) -> List[str]:
    """All findings for one parsed trace document; empty means valid."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        errors.append(
            f"displayTimeUnit must be 'ms' or 'ns', "
            f"got {doc.get('displayTimeUnit')!r}"
        )
    spans = 0
    kinds = set()
    process_names: Dict[Any, str] = {}
    event_pids = set()
    flow_starts = set()
    flow_finishes: List[tuple] = []
    matched_flows = 0
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: must be an object")
            continue
        ph = event.get("ph")
        if ph == "M":                      # metadata events: name + args
            if "name" not in event:
                errors.append(f"{where}: metadata event without a name")
            elif event["name"] == "process_name":
                args = event.get("args")
                label = args.get("name") if isinstance(args, dict) else None
                if not label:
                    errors.append(f"{where}: process_name metadata "
                                  "without args.name")
                else:
                    process_names[event.get("pid")] = label
            continue
        if ph == "i":          # instant markers (resilience, SLO alerts)
            if "name" not in event:
                errors.append(f"{where}: instant event without a name")
            elif event.get("s") not in (None, "t", "p", "g"):
                errors.append(f"{where}: instant scope must be t/p/g, "
                              f"got {event.get('s')!r}")
            else:
                ts = event.get("ts")
                if not _finite(ts) or ts < 0:
                    errors.append(f"{where}: instant ts must be a finite "
                                  f"non-negative number, got {ts!r}")
                kinds.add(event.get("name"))
                event_pids.add(event.get("pid"))
            continue
        if ph in ("s", "f"):              # flow bindings (fleet traces)
            if not _check_flow(event, where, errors):
                continue
            key = (event["cat"], event["id"])
            if ph == "s":
                flow_starts.add(key)
            else:
                flow_finishes.append((where, key))
            continue
        if ph != "X":
            errors.append(f"{where}: unexpected phase {ph!r} "
                          "(exporter emits only X, i, M, s and f events)")
            continue
        spans += 1
        kinds.add(event.get("name"))
        event_pids.add(event.get("pid"))
        _check_span(event, where, errors)
    for where, key in flow_finishes:
        if key in flow_starts:
            matched_flows += 1
        else:
            errors.append(f"{where}: flow finish {key!r} has no matching "
                          "flow start")
    if spans < min_spans:
        errors.append(f"expected at least {min_spans} span events, "
                      f"found {spans}")
    for kind in require_kinds:
        if kind not in kinds:
            errors.append(f"required operation kind {kind!r} has no spans "
                          f"(present: {sorted(k for k in kinds if k)})")
    if matched_flows < require_flows:
        errors.append(f"expected at least {require_flows} matched flow "
                      f"pairs, found {matched_flows}")
    if flow_starts or require_process:
        # A trace with flows (or an explicit ask) is a fleet trace:
        # every process that carries events must be named.
        for pid in sorted(event_pids, key=repr):
            if pid not in process_names:
                errors.append(f"pid {pid!r} carries events but has no "
                              "process_name metadata")
    for name in require_process:
        if name not in process_names.values():
            errors.append(f"required process track {name!r} missing "
                          f"(present: {sorted(process_names.values())})")
    return errors


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--require-kinds", nargs="+", default=(),
                        metavar="KIND",
                        help="operation kinds that must have spans "
                             "(e.g. readPath evictPath earlyReshuffle)")
    parser.add_argument("--min-spans", type=int, default=1,
                        help="minimum number of span events (default: 1)")
    parser.add_argument("--require-flows", type=int, default=0, metavar="N",
                        help="minimum number of matched s/f flow pairs "
                             "(fleet traces; default: 0)")
    parser.add_argument("--require-process", nargs="+", default=(),
                        metavar="NAME",
                        help="process tracks that must be named by "
                             "process_name metadata (e.g. fleet-router "
                             "shard-0)")
    args = parser.parse_args(argv)
    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{args.trace}: {exc}", file=sys.stderr)
        return 2
    errors = validate_trace(doc, require_kinds=args.require_kinds,
                            min_spans=args.min_spans,
                            require_flows=args.require_flows,
                            require_process=args.require_process)
    for error in errors:
        print(f"{args.trace}: {error}", file=sys.stderr)
    if errors:
        return 1
    spans = sum(1 for e in doc["traceEvents"]
                if isinstance(e, dict) and e.get("ph") == "X")
    flows = sum(1 for e in doc["traceEvents"]
                if isinstance(e, dict) and e.get("ph") == "s")
    extra = f", {flows} flows" if flows else ""
    print(f"{args.trace}: valid trace ({spans} spans{extra})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
