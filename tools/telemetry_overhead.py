#!/usr/bin/env python
"""Measure telemetry overhead and gate it (the telemetry-smoke bound).

Runs the same small simulation as ``PAIRS`` (11) alternating pairs --
telemetry off and telemetry on (span tracing plus periodic snapshots,
outputs kept in memory so file I/O does not pollute the measurement),
the order flipping every pair -- and fails when the median of the
per-pair on/off wall-time ratios exceeds 1 by more than
``--max-overhead-pct`` (default 10%).

Pairing is what keeps the gate honest on a shared runner: the two runs
of a pair see the same host load, so a burst of contention moves one
ratio, which the median then ignores, where one lucky run on either
side would move a best-of-N comparison.

``--serve`` adds a second measurement over the resilient serving loop:
the same seeded workload served twice, once bare and once with the
fleet observability plane attached (per-window ops snapshots plus the
SLO windows derived from the completions) -- the bound ``make
obs-smoke`` enforces, because samplers that only *read* must also only barely
*cost*.

Usage: ``PYTHONPATH=src python tools/telemetry_overhead.py
[--levels 10] [--requests 600] [--max-overhead-pct 10] [--serve]``
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Sequence

#: Alternating off/on pairs per measurement; the gate reads the median
#: per-pair ratio.
PAIRS = 11


def _run_serve_once(levels: int, requests: int, seed: int,
                    telemetry: bool) -> float:
    from repro.serve.loadgen import (
        WorkloadConfig, generate_requests, initial_items,
    )
    from repro.serve.resilience import ResilienceConfig, resilient_replay
    from repro.serve.scheduler import BatchScheduler
    from repro.serve.stack import build_stack
    from repro.telemetry import OpsSampler, default_slo_rules, slo_windows

    wl = WorkloadConfig(
        name="overhead", n_requests=requests, n_keys=4_000,
        stored_keys=64, arrival="poisson", rate_rps=1_000_000.0,
        zipf_s=0.9, read_fraction=0.8, delete_fraction=0.02,
        value_bytes=40, expect_dedup=False, seed=seed,
    )
    stack = build_stack(scheme="ab", levels=levels, seed=seed,
                        observer=True)
    for key, value in initial_items(wl):
        stack.kv.put(key, value)
    reqs = list(generate_requests(wl))
    scheduler = BatchScheduler(stack.kv, policy="batch", seed=seed,
                               clock=lambda: stack.dram_sink.now)
    sampler = (
        OpsSampler("overhead", 0, 50_000.0, stack) if telemetry else None
    )
    t0 = time.perf_counter()
    result = resilient_replay(
        stack, reqs, scheduler, ResilienceConfig(), sampler=sampler,
    )
    if telemetry:
        slo_windows(default_slo_rules(), 50_000.0, result.completions,
                    result.end_ns)
    wall = time.perf_counter() - t0
    if telemetry and not sampler.records:
        raise SystemExit("observability run recorded no ops snapshots")
    assert result.completions
    return wall


def _run_once(levels: int, requests: int, seed: int, telemetry: bool,
              pipeline_depth: int = 1) -> float:
    from repro.core import schemes as schemes_mod
    from repro.sim.engine import SimConfig, Simulation
    from repro.sim.runner import make_trace
    from repro.telemetry import Telemetry

    scheme = "ns" if pipeline_depth > 1 else "ab"
    cfg = schemes_mod.by_name(scheme, levels)
    trace = make_trace("spec", "mcf", cfg.n_real_blocks, requests, seed=seed)
    handle = Telemetry(metrics_every=100) if telemetry else None
    t0 = time.perf_counter()
    sim = Simulation(
        cfg, trace, SimConfig(seed=seed, pipeline_depth=pipeline_depth),
        telemetry=handle,
    )
    result = sim.run()
    wall = time.perf_counter() - t0
    if handle is not None:
        handle.close()
        if not handle.spans:
            raise SystemExit("telemetry run recorded no spans")
    assert result.exec_ns > 0
    return wall


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=int, default=10)
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-overhead-pct", type=float, default=10.0,
                        help="fail when the median telemetry-on / off "
                             "ratio exceeds 1 by more than this "
                             "(default: 10%%)")
    parser.add_argument("--pipeline-depth", type=int, default=1,
                        help="also measure the overhead on the pipelined "
                             "controller at this depth (the ns scheme, "
                             "whose reshuffle drain the pipeline overlaps); "
                             "1 = serial only (default)")
    parser.add_argument("--serve", action="store_true",
                        help="also measure the fleet observability plane "
                             "(ops snapshots + SLO windows) over the "
                             "resilient serving loop")
    args = parser.parse_args(argv)

    configs = [("serial", 1)]
    if args.pipeline_depth > 1:
        configs.append((f"pipelined(d={args.pipeline_depth})",
                        args.pipeline_depth))
    if args.serve:
        configs.append(("serve-observability", 0))
    failed = False
    for label, depth in configs:
        if depth == 0:
            def measure(telemetry: bool) -> float:
                return _run_serve_once(args.levels, args.requests,
                                       args.seed, telemetry)
        else:
            def measure(telemetry: bool, _depth: int = depth) -> float:
                return _run_once(args.levels, args.requests, args.seed,
                                 telemetry, pipeline_depth=_depth)
        # One throwaway run of each side warms imports, trace caches
        # and the allocator before anything is timed.
        measure(False)
        measure(True)
        offs, ratios = [], []
        for i in range(PAIRS):
            if i % 2:
                on = measure(True)
                off = measure(False)
            else:
                off = measure(False)
                on = measure(True)
            offs.append(off)
            ratios.append(on / off)
        overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
        print(f"[{label}] telemetry off: {statistics.median(offs) * 1e3:.1f}"
              f" ms   pair ratios: "
              f"{' '.join(f'{r:.3f}' for r in ratios)}   "
              f"overhead (median): {overhead_pct:+.2f}% "
              f"(bound: {args.max_overhead_pct:.1f}%)")
        if overhead_pct > args.max_overhead_pct:
            print(f"FAIL: [{label}] telemetry overhead {overhead_pct:.2f}% "
                  f"exceeds {args.max_overhead_pct:.1f}%", file=sys.stderr)
            failed = True
    if failed:
        return 1
    print("telemetry overhead within bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
