#!/usr/bin/env python
"""Count the work telemetry adds and gate it (the telemetry-smoke bound).

Runs one small seeded workload per configuration (L10, 600 requests,
seed 0) with telemetry off and with telemetry on (span tracing plus
periodic snapshots, outputs kept in memory), each under ``cProfile``,
and counts the calls of named ``repro`` functions the way
``tools/workprofile.py`` counts them (comprehensions, generator
expressions and lambdas skipped). It fails when the calls telemetry
adds exceed the configuration's committed budget in :data:`BUDGETS`.
The count is a pure function of the code, so the gate reads the same on
any host under any load.

``--pipeline-depth 4`` adds the pipelined controller (the ``ns``
scheme, whose reshuffle drain the pipeline overlaps); ``--serve`` adds
the resilient serving loop, once bare and once with the fleet
observability plane attached (per-window ops snapshots plus the SLO
windows derived from the completions) -- the bound ``make obs-smoke``
enforces, because samplers that only *read* must also only barely
*cost*.

When every count is within budget it times ``PAIRS`` (11) alternating
off/on pairs per configuration and prints the median per-pair wall
ratio. That ratio is for reading, never a gate: host wall time on a
shared runner swings by more than the bound it would check, and
``benchmarks/e2e`` is where host speed is measured.

Usage: ``PYTHONPATH=src python tools/telemetry_overhead.py
[--pipeline-depth 4] [--serve]``
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

LEVELS = 10
REQUESTS = 600
SEED = 0

#: Alternating off/on pairs per wall measurement; the printed ratio is
#: their median.
PAIRS = 11

#: The most named ``repro`` calls telemetry may add to one run, per
#: configuration, each under twice the addition measured when it was
#: set (serial +2,140, pipelined +4,472, serve +8,953).
BUDGETS = {
    "serial": 3_000,
    "pipelined(d=4)": 6_500,
    "serve-observability": 13_000,
}

Run = Callable[[], None]


def _serve_run(telemetry: bool) -> Run:
    """The resilient serving loop over a fresh ``ab`` stack, with the
    ops sampler and the SLO windows when ``telemetry``."""
    from repro.serve.loadgen import (
        WorkloadConfig, generate_requests, initial_items,
    )
    from repro.serve.resilience import ResilienceConfig, resilient_replay
    from repro.serve.scheduler import BatchScheduler
    from repro.serve.stack import build_stack
    from repro.telemetry import OpsSampler, default_slo_rules, slo_windows

    wl = WorkloadConfig(
        name="overhead", n_requests=REQUESTS, n_keys=4_000,
        stored_keys=64, arrival="poisson", rate_rps=1_000_000.0,
        zipf_s=0.9, read_fraction=0.8, delete_fraction=0.02,
        value_bytes=40, expect_dedup=False, seed=SEED,
    )
    stack = build_stack(scheme="ab", levels=LEVELS, seed=SEED,
                        observer=True)
    for key, value in initial_items(wl):
        stack.kv.put(key, value)
    reqs = list(generate_requests(wl))
    scheduler = BatchScheduler(stack.kv, policy="batch", seed=SEED,
                               clock=lambda: stack.dram_sink.now)
    sampler = (
        OpsSampler("overhead", 0, 50_000.0, stack) if telemetry else None
    )

    def run() -> None:
        result = resilient_replay(
            stack, reqs, scheduler, ResilienceConfig(), sampler=sampler,
        )
        if telemetry:
            slo_windows(default_slo_rules(), 50_000.0, result.completions,
                        result.end_ns)
            if not sampler.records:
                raise SystemExit("observability run recorded no ops snapshots")
        assert result.completions

    return run


def _sim_run(telemetry: bool, pipeline_depth: int) -> Run:
    """One simulation of the ``mcf`` trace, traced when ``telemetry``."""
    from repro.core import schemes as schemes_mod
    from repro.sim.engine import SimConfig, Simulation
    from repro.sim.runner import make_trace
    from repro.telemetry import Telemetry

    scheme = "ns" if pipeline_depth > 1 else "ab"
    cfg = schemes_mod.by_name(scheme, LEVELS)
    trace = make_trace("spec", "mcf", cfg.n_real_blocks, REQUESTS, seed=SEED)
    handle = Telemetry(metrics_every=100) if telemetry else None

    def run() -> None:
        sim = Simulation(
            cfg, trace, SimConfig(seed=SEED, pipeline_depth=pipeline_depth),
            telemetry=handle,
        )
        result = sim.run()
        if handle is not None and not handle.spans:
            raise SystemExit("telemetry run recorded no spans")
        assert result.exec_ns > 0

    return run


def count_calls(run: Run) -> int:
    """Calls of named functions of the imported ``repro`` package made
    by ``run()``."""
    import repro

    src = str(Path(repro.__file__).resolve().parent) + "/"
    # cProfile takes the interpreter's one profile hook; hand it back
    # afterwards so an outer recorder (the reach audit) keeps running.
    outer = sys.getprofile()
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
        sys.setprofile(outer)
    return sum(
        n for (path, _, func), (_, n, *_) in pstats.Stats(profile).stats.items()
        if path.startswith(src) and not func.startswith("<")
    )


def wall_ratio(prepare: Callable[[bool], Run]) -> str:
    """``PAIRS`` alternating off/on timings, as a printable summary."""
    def timed(telemetry: bool) -> float:
        run = prepare(telemetry)
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    offs, ratios = [], []
    for i in range(PAIRS):
        if i % 2:
            on = timed(True)
            off = timed(False)
        else:
            off = timed(False)
            on = timed(True)
        offs.append(off)
        ratios.append(on / off)
    return (f"telemetry off: {statistics.median(offs) * 1e3:.1f} ms   "
            f"wall ratio on/off (median of {PAIRS} pairs, not gated): "
            f"{statistics.median(ratios):.3f}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pipeline-depth", type=int, default=1,
                        help="also count the pipelined controller at this "
                             "depth (the ns scheme, whose reshuffle drain "
                             "the pipeline overlaps); 1 = serial only "
                             "(default)")
    parser.add_argument("--serve", action="store_true",
                        help="also count the fleet observability plane "
                             "(ops snapshots + SLO windows) over the "
                             "resilient serving loop")
    args = parser.parse_args(argv)

    configs = {"serial": lambda on: _sim_run(on, 1)}
    if args.pipeline_depth > 1:
        configs[f"pipelined(d={args.pipeline_depth})"] = (
            lambda on: _sim_run(on, args.pipeline_depth))
    if args.serve:
        configs["serve-observability"] = _serve_run
    unbudgeted = [label for label in configs if label not in BUDGETS]
    if unbudgeted:
        print(f"error: no committed budget for {', '.join(unbudgeted)}",
              file=sys.stderr)
        return 2
    failed = False
    for label, prepare in configs.items():
        # One uncounted run of each side resolves lazy imports and
        # first-call caches, so both counts see the same steady state.
        prepare(False)()
        prepare(True)()
        off = count_calls(prepare(False))
        on = count_calls(prepare(True))
        added, budget = on - off, BUDGETS[label]
        print(f"[{label}] named repro calls: off {off:,}  on {on:,}  "
              f"added {added:+,} (budget {budget:,})")
        if added > budget:
            print(f"FAIL: [{label}] telemetry adds {added:,} calls, over "
                  f"its budget of {budget:,}", file=sys.stderr)
            failed = True
    if failed:
        return 1
    for label, prepare in configs.items():
        print(f"[{label}] {wall_ratio(prepare)}")
    print("telemetry work within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
