#!/usr/bin/env python
"""Require two benchmark reports to have identical deterministic views.

Every harness promises its deterministic content is a pure function of
the config -- byte-identical across repeat runs and any ``--workers``
width. CI enforces that promise by running a harness twice (e.g. serial
and ``--workers 2``) and feeding both artifacts to this checker, which
loads them through the report kernel (:mod:`repro.report`): each file
is validated against the spec its ``kind`` names (perf, faults, serve,
chaos or scaling -- pipelined ``@pN`` / sharded ``@sN`` perf cells and
per-shard fleet blocks included), reduced to that spec's deterministic
view (host-dependent fields stripped) and compared by canonical JSON
bytes. An unreadable, truncated, schema-invalid or unrecognized report
is a one-line error, not a silent pass.

Usage: ``python tools/report_determinism.py A.json B.json`` -- exits
non-zero with the first differing path when the reports diverge.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence


def _first_divergence(a: Any, b: Any, path: str = "$") -> str:
    """A human-pointable path to the first structural difference."""
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: present in only one report"
            if a[key] != b[key]:
                return _first_divergence(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_divergence(x, y, f"{path}[{i}]")
    return f"{path}: {a!r} != {b!r}"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs=2, metavar="REPORT",
                        help="two report JSON files to compare")
    args = parser.parse_args(argv)
    from repro.report import load_report, spec_for

    docs = []
    for path in args.reports:
        doc, errors = load_report(path)
        if errors:
            print(errors[0], file=sys.stderr)
            return 2
        docs.append(doc)
    a, b = docs
    if a["kind"] != b["kind"]:
        print(f"report kinds differ: {a['kind']!r} vs {b['kind']!r}",
              file=sys.stderr)
        return 1
    spec = spec_for(a)
    if spec.deterministic_bytes(a) == spec.deterministic_bytes(b):
        print(f"deterministic views identical: {args.reports[0]} == "
              f"{args.reports[1]}")
        return 0
    where = _first_divergence(
        spec.deterministic_view(a), spec.deterministic_view(b)
    )
    print(f"deterministic views differ at {where}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
