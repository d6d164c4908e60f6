"""Run the perf matrix and build a report document.

Every repeat of a serial or pipelined cell is one job of one
:func:`repro.sim.runner.run_sims` fan-out, and so is every shard of a
sharded cell (:func:`repro.core.sharding.sharded.shard_jobs`). The
parent makes each trace once and folds the jobs back into cells: a
cell's ``wall_s`` is its best repeat, a sharded repeat's wall the sum
of its shard walls. The simulation itself is fully deterministic (pinned seeds for trace generation, warm fill and the
protocol RNG), so the ``sim`` block of a cell only changes when the
simulator's behaviour changes -- which is exactly what makes the report
comparable across commits.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import schemes as schemes_mod
from repro.core.sharding.sharded import shard_jobs
from repro.parallel.executor import Cell, CellResult
from repro.perf.schema import PERF
from repro.report import assemble
from repro.sim.engine import SimConfig
from repro.sim.runner import make_trace, run_sims
from repro.traces.trace import Trace


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

    ``cfg.workers > 1`` fans the jobs of every cell over a process
    pool; the merged ``cells`` list keeps matrix order and its ``sim``
    blocks are bit-identical to a serial run (only ``wall_s`` is
    host-dependent). A cell whose jobs cannot be built, or one of whose
    jobs raises -- or dies outright -- becomes an ``{"scheme", "trace",
    "error"}`` entry instead of aborting the sweep.
    """
    cfg = cfg or full_config()
    quads = [(s, b, 1, 1) for s in cfg.schemes for b in cfg.benchmarks]
    quads += [(s, b, int(d), 1) for s, b, d in cfg.pipeline]
    quads += [(s, b, 1, int(n)) for s, b, n in cfg.shards]
    identities = [_identity(*quad) for quad in quads]
    traces: Dict[Tuple[str, int], Trace] = {}
    plans: List[Any] = []   # per cell: a CellResult error or (outcome, n)
    jobs: List[Cell] = []
    for identity, (scheme_name, bench, depth, num_shards) in zip(
        identities, quads
    ):
        key = PERF.cell_key(identity)
        try:
            scheme = schemes_mod.by_name(scheme_name, cfg.levels)
            n_blocks = scheme.n_real_blocks
            if (bench, n_blocks) not in traces:
                traces[bench, n_blocks] = make_trace(
                    SUITE, bench, n_blocks, cfg.n_requests, seed=cfg.seed,
                )
            trace = traces[bench, n_blocks]
            if num_shards > 1:
                # The serial twin's trace over right-sized subtrees.
                outcome, cell_jobs = shard_jobs(
                    scheme_name, trace, n_blocks, num_shards,
                    warmup_requests=cfg.warmup_requests, seed=cfg.seed,
                )
            else:
                outcome, cell_jobs = None, [(scheme, trace, SimConfig(
                    seed=cfg.seed,
                    warmup_requests=cfg.warmup_requests,
                    pipeline_depth=depth,
                ))]
        except Exception:
            plans.append(CellResult(key, False, None, traceback.format_exc()))
            continue
        plans.append((outcome, len(cell_jobs)))
        for r in range(cfg.repeats):
            tag = key if cfg.repeats == 1 else f"{key}#{r + 1}"
            jobs += [
                Cell(tag if outcome is None else f"{tag}/shard:{i}", job)
                for i, job in enumerate(cell_jobs)
            ]
    outputs = iter(run_sims(jobs, workers=cfg.workers, progress=cfg.progress))
    cells: List[CellResult] = []
    for identity, plan in zip(identities, plans):
        if isinstance(plan, CellResult):
            cells.append(plan)
            continue
        outcome, n_jobs = plan
        runs = [[next(outputs) for _ in range(n_jobs)]
                for _ in range(cfg.repeats)]
        failed = [res for run in runs for res in run if not res.ok]
        if failed:
            cells.append(failed[0])
            continue
        wall = min(sum(res.value[1] for res in run) for run in runs)
        results = [res.value[0] for res in runs[-1]]
        if outcome is None:
            sim = results[0].sim_block()
        else:
            outcome.per_shard = results
            sim = outcome.merged_sim_block()
        cells.append(CellResult(PERF.cell_key(identity), True, {
            **identity,
            "wall_s": wall,
            "accesses_per_s": cfg.n_requests / wall if wall > 0 else 0.0,
            "sim": sim,
        }))
    return assemble(PERF, cfg.to_dict(), identities, cells)
