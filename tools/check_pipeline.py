#!/usr/bin/env python
"""Gate the pipelined perf cell: speedup, logical identity, bit-identity.

Reads one ``BENCH_perf.json`` report containing a pipelined cell and
its serial twin (e.g. ``ns/mcf@p4`` next to ``ns/mcf``) and enforces
the three promises the transaction pipeline makes:

1. **Speedup** -- the pipelined cell's simulated DRAM-ns (``exec_ns``)
   must beat the serial twin by at least ``--min-speedup`` (default
   1.5x, the tracked perf gate).
2. **Logical identity** -- every non-timing field of the two ``sim``
   blocks must match exactly: the pipeline overlaps *when* the DRAM
   traffic happens, never *what* the protocol does. Timing-derived
   fields (``exec_ns``, ``ns_per_access``, ``row_hit_rate``) are
   expected to differ and excluded.
3. **Depth-1 bit-identity** (with ``--baseline``) -- the report's
   serial cells must match the committed baseline's ``sim`` blocks
   byte for byte: adding the pipeline must not perturb the serial
   controller at all.

Usage: ``PYTHONPATH=src python tools/check_pipeline.py BENCH_perf.json
[--baseline benchmarks/baselines/BENCH_perf_smoke.json]
[--min-speedup 1.5]``
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Sequence

#: ``sim`` fields the pipeline changes by design (when DRAM traffic
#: lands on the clock); everything else must be depth-invariant.
TIMING_FIELDS = frozenset(("exec_ns", "ns_per_access", "row_hit_rate"))


def _load(path: str) -> Dict[str, Any]:
    with open(path) as f:
        doc = json.load(f)
    from repro.perf.schema import validate_report
    problems = validate_report(doc)
    if problems:
        raise SystemExit(
            f"{path}: invalid perf report:\n  " + "\n  ".join(problems)
        )
    return doc


def _cells_by_key(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    from repro.perf.schema import cell_key
    out = {}
    for cell in doc["cells"]:
        if "error" in cell:
            raise SystemExit(
                f"cell {cell['scheme']}/{cell['trace']} errored:\n"
                f"{cell['error']}"
            )
        out[cell_key(cell)] = cell
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="BENCH_perf.json with pipelined cells")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline report; serial cells must "
                             "match its sim blocks byte for byte")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required serial/pipelined exec_ns ratio "
                             "(default: 1.5)")
    args = parser.parse_args(argv)

    doc = _load(args.report)
    cells = _cells_by_key(doc)
    pipelined = {k: c for k, c in cells.items()
                 if c.get("pipeline_depth", 1) > 1}
    if not pipelined:
        print(f"{args.report}: no pipelined (@pN) cells", file=sys.stderr)
        return 2

    failures = []
    for key, cell in sorted(pipelined.items()):
        serial_key = f"{cell['scheme']}/{cell['trace']}"
        twin = cells.get(serial_key)
        if twin is None:
            failures.append(f"{key}: serial twin {serial_key} not in report")
            continue
        # 1. speedup on simulated DRAM-ns
        serial_ns = twin["sim"]["exec_ns"]
        pipe_ns = cell["sim"]["exec_ns"]
        speedup = serial_ns / pipe_ns if pipe_ns > 0 else 0.0
        ok = speedup >= args.min_speedup
        print(f"{key}: exec_ns {serial_ns:.1f} -> {pipe_ns:.1f}  "
              f"speedup {speedup:.3f}x  "
              f"(gate: >= {args.min_speedup:.2f}x)  "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"{key}: speedup {speedup:.3f}x below {args.min_speedup}x"
            )
        # 2. logical identity vs the serial twin
        for field in sorted(set(twin["sim"]) | set(cell["sim"])):
            if field in TIMING_FIELDS:
                continue
            if twin["sim"].get(field) != cell["sim"].get(field):
                failures.append(
                    f"{key}: logical field {field!r} diverged from serial "
                    f"twin: {twin['sim'].get(field)!r} vs "
                    f"{cell['sim'].get(field)!r}"
                )
        if not any(f.startswith(f"{key}: logical") for f in failures):
            print(f"{key}: logical sim fields identical to {serial_key}")

    # 3. depth-1 bit-identity vs the committed baseline
    if args.baseline:
        base = _cells_by_key(_load(args.baseline))
        checked = 0
        for key, cell in sorted(cells.items()):
            if cell.get("pipeline_depth", 1) > 1 or key not in base:
                continue
            checked += 1
            want = json.dumps(base[key]["sim"], sort_keys=True)
            got = json.dumps(cell["sim"], sort_keys=True)
            if want != got:
                failures.append(
                    f"{key}: serial sim block diverged from baseline "
                    f"{args.baseline}"
                )
        if checked == 0:
            failures.append(
                f"no serial cells shared with baseline {args.baseline}"
            )
        else:
            print(f"serial cells bit-identical to baseline: "
                  f"{checked} checked")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("pipeline gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
