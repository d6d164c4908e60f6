"""Run the perf matrix and build a report document.

Every cell is one ``run_suite`` call over a single (scheme, benchmark)
pair, timed with ``time.perf_counter``. The simulation itself is fully
deterministic (pinned seeds for trace generation, warm fill and the
protocol RNG), so the ``sim`` block of a cell only changes when the
simulator's behaviour changes -- which is exactly what makes the report
comparable across commits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core import schemes as schemes_mod
from repro.parallel.executor import Cell, report_progress, run_cells
from repro.perf.schema import PERF
from repro.report import assemble
from repro.sim.engine import SimConfig
from repro.sim.results import SimResult
from repro.sim.runner import make_trace, run_suite


#: Every perf cell replays a SPEC trace.
SUITE = "spec"


@dataclass
class PerfConfig:
    """One perf-harness invocation (the report's ``config`` block)."""

    schemes: Sequence[str] = ("ring", "baseline", "dr", "ab")
    benchmarks: Sequence[str] = ("mcf", "xz", "x264")
    levels: int = 12
    n_requests: int = 2000
    warmup_requests: int = 400
    seed: int = 0
    repeats: int = 1
    smoke: bool = False
    #: Extra pipelined cells as (scheme, bench, depth) triples, run
    #: after the serial cross product. Each shares the matrix sizes
    #: and seed; its cell records ``pipeline_depth`` and keys as
    #: ``scheme/bench@p<depth>``.
    pipeline: Sequence[Tuple[str, str, int]] = ()
    #: Extra sharded cells as (scheme, bench, shards) triples: the same
    #: trace partitioned over N subtrees (:mod:`repro.core.sharding`)
    #: with the fleet makespan as ``exec_ns``. Keys as
    #: ``scheme/bench@s<shards>`` next to the serial twin.
    shards: Sequence[Tuple[str, str, int]] = ()
    workers: int = 1
    progress: Any = None  # callable(str) for live cell updates

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schemes": list(self.schemes),
            "benchmarks": list(self.benchmarks),
            "suite": SUITE,
            "levels": self.levels,
            "n_requests": self.n_requests,
            "warmup_requests": self.warmup_requests,
            "seed": self.seed,
            "repeats": self.repeats,
            "smoke": self.smoke,
            "pipeline_cells": [list(t) for t in self.pipeline],
            "shard_cells": [list(t) for t in self.shards],
        }


def _prune_extras(cfg: PerfConfig, overrides: Dict[str, Any]) -> PerfConfig:
    """Drop default pipelined/sharded cells outside --schemes/--benchmarks.

    Each extra cell needs its serial twin in the matrix to be
    comparable, so narrowing the selection prunes the defaults (an
    explicit override is kept verbatim).
    """
    if "pipeline" not in overrides:
        cfg = replace(cfg, pipeline=tuple(
            (s, b, d) for s, b, d in cfg.pipeline
            if s in cfg.schemes and b in cfg.benchmarks
        ))
    if "shards" not in overrides:
        cfg = replace(cfg, shards=tuple(
            (s, b, n) for s, b, n in cfg.shards
            if s in cfg.schemes and b in cfg.benchmarks
        ))
    return cfg


def full_config(**overrides: Any) -> PerfConfig:
    """The default matrix. Its first cell (ring/mcf at L12, 2000
    requests) is the tracked headline cell. ``ab/mcf@s4`` is the
    tracked sharded cell: the same trace over a 4-subtree fleet."""
    base = PerfConfig(shards=(("ab", "mcf", 4),))
    return _prune_extras(replace(base, **overrides), overrides)


def smoke_config(**overrides: Any) -> PerfConfig:
    """A seconds-scale matrix for CI: four schemes, one trace.

    ``ns`` is the reshuffle-heavy cell (S=1 bottom levels force early
    reshuffles constantly) and ``dr``/``ab`` exercise the dead-block
    reclaim machinery (DeadQ gather/acquire, remote rentals), so the
    smoke matrix covers the vectorized reshuffle write-back path and
    the AB/DR bookkeeping, not just steady-state reads.
    """
    base = PerfConfig(
        schemes=("ring", "ab", "dr", "ns"),
        benchmarks=("mcf",),
        levels=10,
        n_requests=500,
        warmup_requests=100,
        repeats=1,
        smoke=True,
        # The reshuffle-heavy pipelined cell: ns/mcf at depth 4 is the
        # tracked >= 1.5x speedup cell (vs its serial ns/mcf twin).
        pipeline=(("ns", "mcf", 4),),
        # The sharded cell: ab/mcf over a 4-subtree fleet (makespan
        # measures the fleet effect against the serial ab/mcf twin).
        shards=(("ab", "mcf", 4),),
    )
    return _prune_extras(replace(base, **overrides), overrides)


_sim_block = SimResult.sim_block


def _best_of(repeats: int, run: Callable[[], Any]) -> Tuple[float, Any]:
    """Best-of-``repeats`` wall time plus the (deterministic) value."""
    best, value = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = run()
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    assert best is not None
    return best, value


def _run_one_cell(
    cfg: PerfConfig, scheme_name: str, bench: str, depth: int = 1
) -> Tuple[float, SimResult]:
    """Best wall time plus the result of one serial/pipelined cell."""
    scheme = schemes_mod.by_name(scheme_name, cfg.levels)
    wall, out = _best_of(cfg.repeats, lambda: run_suite(
        [scheme],
        suite=SUITE,
        benchmarks=[bench],
        n_requests=cfg.n_requests,
        warmup_requests=cfg.warmup_requests,
        seed=cfg.seed,
        sim=SimConfig(
            seed=cfg.seed,
            warmup_requests=cfg.warmup_requests,
            pipeline_depth=depth,
        ),
    ))
    return wall, out[scheme.name][bench]


def _run_sharded_cell(
    cfg: PerfConfig, scheme_name: str, bench: str, num_shards: int
) -> Tuple[float, Dict[str, Any]]:
    """Best wall time plus the merged fleet sim block of a sharded cell.

    The trace is the serial twin's trace exactly (same suite, block
    count, request count and seed), partitioned over ``num_shards``
    right-sized subtrees; ``exec_ns`` of the returned block is the
    fleet makespan.
    """
    from repro.core.sharding.sharded import run_sharded_sim

    scheme = schemes_mod.by_name(scheme_name, cfg.levels)
    trace = make_trace(
        SUITE, bench, scheme.n_real_blocks, cfg.n_requests,
        seed=cfg.seed,
    )
    wall, outcome = _best_of(cfg.repeats, lambda: run_sharded_sim(
        scheme_name, trace, scheme.n_real_blocks, num_shards,
        warmup_requests=cfg.warmup_requests, seed=cfg.seed,
    ))
    return wall, outcome.merged_sim_block()


def _perf_cell_task(
    payload: Tuple[PerfConfig, str, str, int, int]
) -> Dict[str, Any]:
    """One matrix cell, runnable in-process or in a pool worker.

    Returns the finished report cell (plain JSON-able dict, so crossing
    the process boundary never pickles a SimResult or a callback).
    """
    cfg, scheme_name, bench, depth, num_shards = payload
    identity = _identity(scheme_name, bench, depth, num_shards)
    report_progress(f"running {PERF.cell_key(identity)} ...")
    if num_shards > 1:
        wall, sim = _run_sharded_cell(cfg, scheme_name, bench, num_shards)
    else:
        wall, result = _run_one_cell(cfg, scheme_name, bench, depth)
        sim = _sim_block(result)
    return {
        **identity,
        "wall_s": wall,
        "accesses_per_s": cfg.n_requests / wall if wall > 0 else 0.0,
        "sim": sim,
    }


def _identity(
    scheme: str, bench: str, depth: int, num_shards: int
) -> Dict[str, Any]:
    """A cell's identity fields (serial cells omit depth and width)."""
    identity: Dict[str, Any] = {"scheme": scheme, "trace": bench}
    if depth > 1:
        identity["pipeline_depth"] = depth
    if num_shards > 1:
        identity["shards"] = num_shards
    return identity


def run_perf(cfg: Optional[PerfConfig] = None) -> Dict[str, Any]:
    """Run the matrix of ``cfg`` and return the report document.

    ``cfg.workers > 1`` fans the independent cells over a process pool;
    the merged ``cells`` list keeps matrix order and its ``sim`` blocks
    are bit-identical to a serial run (only ``wall_s`` is
    host-dependent). A cell whose worker raises -- or dies outright --
    becomes an ``{"scheme", "trace", "error"}`` entry instead of
    aborting the sweep.
    """
    cfg = cfg or full_config()
    # What ships to workers must be progress-free (callbacks do not
    # pickle; report_progress routes through the pool's queue) and
    # serial inside (parallelism lives at the matrix level).
    worker_cfg = replace(cfg, progress=None, workers=1)
    quads = [(s, b, 1, 1) for s in cfg.schemes for b in cfg.benchmarks]
    quads += [(s, b, int(d), 1) for s, b, d in cfg.pipeline]
    quads += [(s, b, 1, int(n)) for s, b, n in cfg.shards]
    identities = [_identity(*quad) for quad in quads]
    outputs = run_cells(
        _perf_cell_task,
        [
            Cell(PERF.cell_key(identity), (worker_cfg, *quad))
            for identity, quad in zip(identities, quads)
        ],
        workers=cfg.workers,
        progress=cfg.progress,
    )
    return assemble(PERF, cfg.to_dict(), identities, outputs)
