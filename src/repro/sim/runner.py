"""Sweep drivers: run scheme x benchmark matrices.

The figure benchmarks all reduce to "simulate every scheme against
every benchmark of a suite and aggregate"; this module centralizes that
loop (trace caching, per-scheme result maps) so each benchmark file
stays a thin description of its figure.

``run_suite(..., workers=N)`` fans the independent (scheme, benchmark)
cells over a process pool -- every cell is a self-contained simulation,
so sweeps scale linearly with cores. Observers cannot cross process
boundaries, so parallel runs require an observer-free ``SimConfig``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.oram.config import OramConfig
from repro.parallel.executor import Cell, run_cells
from repro.sim.engine import SimConfig, simulate
from repro.sim.results import SimResult
from repro.traces.parsec import parsec_benchmarks, parsec_trace
from repro.traces.spec import spec_benchmarks, spec_trace
from repro.traces.trace import Trace

TraceFactory = Callable[[str, int, int, int], Trace]

_SUITES: Dict[str, Callable] = {
    "spec": spec_trace,
    "parsec": parsec_trace,
}

_SUITE_NAMES: Dict[str, Callable] = {
    "spec": spec_benchmarks,
    "parsec": parsec_benchmarks,
}


def suite_benchmarks(suite: str) -> List[str]:
    """Benchmark names of a suite ("spec" or "parsec")."""
    if suite not in _SUITE_NAMES:
        raise KeyError(f"unknown suite {suite!r}")
    return _SUITE_NAMES[suite]()


def make_trace(
    suite: str, name: str, n_oram_blocks: int, n_requests: int, seed: int = 0
) -> Trace:
    if suite not in _SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    return _SUITES[suite](name, n_oram_blocks, n_requests, seed=seed)


def run_schemes(
    schemes: Sequence[OramConfig],
    trace: Trace,
    sim: Optional[SimConfig] = None,
) -> Dict[str, SimResult]:
    """Simulate one trace against several schemes; keyed by scheme name."""
    return {cfg.name: simulate(cfg, trace, sim) for cfg in schemes}


def _run_cell(args: Tuple[OramConfig, Trace, SimConfig]) -> SimResult:
    """Picklable worker entry for one (scheme, trace) simulation."""
    cfg, trace, sim = args
    return simulate(cfg, trace, sim)


def run_suite(
    schemes: Sequence[OramConfig],
    suite: str = "spec",
    benchmarks: Optional[Sequence[str]] = None,
    n_requests: int = 2000,
    warmup_requests: int = 0,
    seed: int = 0,
    sim: Optional[SimConfig] = None,
    workers: int = 1,
) -> Dict[str, Dict[str, SimResult]]:
    """Scheme x benchmark sweep; returns scheme -> benchmark -> result.

    All schemes must share the same block count so one trace replays
    identically against each of them (the paper's methodology).
    ``workers > 1`` distributes the cells over a process pool; results
    are bit-identical to the serial run (each cell is seeded
    independently of execution order).
    """
    if not schemes:
        raise ValueError("need at least one scheme")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_blocks = schemes[0].n_real_blocks
    for cfg in schemes[1:]:
        if cfg.n_real_blocks != n_blocks:
            raise ValueError(
                f"schemes disagree on protected blocks: "
                f"{cfg.name}={cfg.n_real_blocks} vs {schemes[0].name}={n_blocks}"
            )
    names = list(benchmarks) if benchmarks else suite_benchmarks(suite)
    base_sim = sim or SimConfig()
    if workers > 1 and base_sim.observers:
        raise ValueError(
            "observers cannot cross process boundaries; run with workers=1"
        )
    run_sim = replace(
        base_sim,
        warmup_requests=warmup_requests or base_sim.warmup_requests,
    )
    cells: List[Tuple[str, str, Tuple[OramConfig, Trace, SimConfig]]] = []
    for bench in names:
        trace = make_trace(suite, bench, n_blocks, n_requests, seed=seed)
        for cfg in schemes:
            cells.append((cfg.name, bench, (cfg, trace, run_sim)))
    results: Dict[str, Dict[str, SimResult]] = {cfg.name: {} for cfg in schemes}
    outputs = run_cells(
        _run_cell,
        [Cell(f"{name}/{bench}", args) for name, bench, args in cells],
        workers=workers,
    )
    for (scheme_name, bench, _), res in zip(cells, outputs):
        if not res.ok:
            # run_suite callers expect a complete result map; a failed
            # cell here is a bug, not a sweep condition to tolerate.
            raise RuntimeError(f"simulation cell {res.key} failed:\n{res.error}")
        results[scheme_name][bench] = res.value
    return results
