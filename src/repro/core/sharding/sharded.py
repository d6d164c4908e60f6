"""The partitioned simulator: N independent AB-ORAM subtrees behind one map.

Horizontal scale for the single-controller bottleneck: every logical
block routes to one of N subtrees through the keyed-PRF
:class:`~repro.core.sharding.partition.PartitionMap`, each subtree is
a standard (smaller) scheme instance with its own stash, position map,
RNG stream and clock, and nothing is ever shared between shards -- so
per-shard security arguments are untouched and shards can run in
separate processes.

:func:`shard_jobs` partitions a trace by block id into one
simulation job per shard; :func:`run_sharded_sim` runs those jobs
through :func:`repro.sim.runner.run_sims` (optionally over the process
pool of :mod:`repro.parallel`) and merges the per-shard results into
one fleet-level ``sim`` block where ``exec_ns`` is the makespan (shards
drain concurrently) and the counters are sums. Each shard's behaviour
is *identical by construction* to running that shard alone, because
the only cross-shard state is the stateless partition map.

Because the partition covers the whole block universe -- not just the
ids a trace touches -- each shard's local address space is dense and
bounded by ``ceil(n_blocks / N)``-ish (PRF balance), which lets every
subtree run at the smallest tree depth that fits its slice:
``levels_for_blocks`` picks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import schemes as schemes_mod
from repro.core.sharding.partition import PartitionMap
from repro.parallel.executor import Cell, derive_seed
from repro.sim.engine import SimConfig
from repro.sim.results import SimResult
from repro.sim.runner import SimJob, run_sims
from repro.traces.trace import Trace, TraceRequest

#: Smallest per-shard tree depth ``levels_for_blocks`` will pick; the
#: schemes' bottom-level special cases are all calibrated at L >= 6.
MIN_SHARD_LEVELS = 6
#: Deepest tree ``levels_for_blocks`` will pick.
MAX_SHARD_LEVELS = 26


def levels_for_blocks(scheme: str, n_blocks: int) -> int:
    """Smallest tree depth whose scheme instance holds ``n_blocks``."""
    for levels in range(MIN_SHARD_LEVELS, MAX_SHARD_LEVELS + 1):
        if schemes_mod.by_name(scheme, levels).n_real_blocks >= n_blocks:
            return levels
    raise ValueError(
        f"no {scheme} tree up to L={MAX_SHARD_LEVELS} holds {n_blocks} "
        "blocks"
    )


# ----------------------------------------------------------- trace splitting

def split_trace(
    trace: Trace, pmap: PartitionMap, n_blocks: int,
) -> List[Trace]:
    """Partition a trace into per-shard local traces.

    Block ids are remapped to each shard's dense local space, so every
    sub-trace replays against a right-sized subtree. Relative request
    order within a shard is preserved (routing is a stable partition of
    the program order).
    """
    shard_ids, local_ids = pmap.split_blocks(n_blocks)
    per_shard: List[List[TraceRequest]] = [
        [] for _ in range(pmap.num_shards)
    ]
    for req in trace.requests:
        shard = int(shard_ids[req.block])
        per_shard[shard].append(
            TraceRequest(block=int(local_ids[req.block]), write=req.write)
        )
    return [
        Trace(
            name=f"{trace.name}@s{i}",
            requests=reqs,
            read_mpki=trace.read_mpki,
            write_mpki=trace.write_mpki,
            suite=trace.suite,
        )
        for i, reqs in enumerate(per_shard)
    ]


@dataclass
class ShardedSimOutcome:
    """One partitioned simulation: per-shard results plus the merge."""

    scheme: str
    trace: str
    num_shards: int
    shard_levels: int
    #: Blocks of the full universe assigned to each shard.
    shard_blocks: List[int]
    #: Requests of the trace that routed to each shard.
    shard_requests: List[int]
    per_shard: List[SimResult]

    @property
    def requests(self) -> int:
        return sum(r.requests for r in self.per_shard)

    def merged_sim_block(self) -> Dict[str, Any]:
        """The fleet-level ``sim`` block (perf-schema shaped).

        ``exec_ns`` is the makespan and ``ns_per_access`` the aggregate
        DRAM-ns per request at fleet scope; counters are sums,
        ``stash_peak`` the worst shard, and ``row_hit_rate`` the
        traffic-weighted mean.
        """
        blocks = [r.sim_block() for r in self.per_shard]
        traffic = [b["dram_reads"] + b["dram_writes"] for b in blocks]
        total_traffic = sum(traffic)
        requests = self.requests
        merged: Dict[str, Any] = {}
        for key in blocks[0]:
            values = [b[key] for b in blocks]
            if key in ("exec_ns", "stash_peak"):
                merged[key] = max(values)
            elif key == "reshuffles_by_level":
                merged[key] = [
                    sum(level) for level in zip_longest(*values, fillvalue=0)
                ]
            else:
                merged[key] = sum(values)
        merged["ns_per_access"] = (
            merged["exec_ns"] / requests if requests else 0.0
        )
        merged["row_hit_rate"] = (
            sum(b["row_hit_rate"] * t for b, t in zip(blocks, traffic))
            / total_traffic if total_traffic else 0.0
        )
        return merged


def shard_jobs(
    scheme: str,
    trace: Trace,
    n_blocks: int,
    num_shards: int,
    warmup_requests: int = 0,
    seed: int = 0,
) -> Tuple[ShardedSimOutcome, List[SimJob]]:
    """Partition ``trace`` over ``num_shards`` subtrees: the outcome to
    fill (``per_shard`` empty) and one simulation job per shard.

    Every shard is an independent, seed-pinned serial-controller
    simulation of its slice at the smallest tree depth that fits the
    largest slice (all shards share a depth so their per-access costs
    are comparable). Warmup is split proportionally to each shard's
    request share. A shard's job is a pure function of ``(arguments,
    shard id)``, so the merge is byte-identical however the jobs run.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if 0 < warmup_requests >= len(trace.requests):
        raise ValueError(
            f"warmup_requests ({warmup_requests}) must be below the "
            f"trace length ({len(trace.requests)}): nothing would be "
            "measured")
    pmap = PartitionMap(num_shards, seed=seed)
    sub_traces = split_trace(trace, pmap, n_blocks)
    shard_ids, _ = pmap.split_blocks(n_blocks)
    counts = np.bincount(shard_ids, minlength=num_shards)
    shard_levels = levels_for_blocks(scheme, max(1, int(counts.max())))
    cfg = schemes_mod.by_name(scheme, shard_levels)
    total = len(trace.requests)
    jobs: List[SimJob] = []
    for i, sub in enumerate(sub_traces):
        share = len(sub.requests) / total if total else 0.0
        warmup = int(round(warmup_requests * share))
        # Below the shard's request count, or its Simulation refuses.
        warmup = min(warmup, max(len(sub.requests) - 1, 0))
        jobs.append((cfg, sub, SimConfig(
            seed=derive_seed(seed, f"shard:{i}"), warmup_requests=warmup,
        )))
    return ShardedSimOutcome(
        scheme=scheme,
        trace=trace.name,
        num_shards=num_shards,
        shard_levels=shard_levels,
        shard_blocks=[int(c) for c in counts],
        shard_requests=[len(t.requests) for t in sub_traces],
        per_shard=[],
    ), jobs


def run_sharded_sim(
    scheme: str,
    trace: Trace,
    n_blocks: int,
    num_shards: int,
    sim: Optional[SimConfig] = None,
    workers: int = 1,
    progress: Any = None,
) -> ShardedSimOutcome:
    """Partition ``trace`` over ``num_shards`` subtrees and simulate.

    :func:`shard_jobs` (at ``sim``'s warm-up and seed) followed by one
    :func:`run_sims` call, each shard one job keyed ``shard:<i>``; a
    failed shard raises.
    """
    sim = sim or SimConfig()
    outcome, jobs = shard_jobs(
        scheme, trace, n_blocks, num_shards, sim.warmup_requests, sim.seed,
    )
    outputs = run_sims(
        [Cell(f"shard:{i}", job) for i, job in enumerate(jobs)],
        workers=workers,
        progress=progress,
    )
    for i, res in enumerate(outputs):
        if not res.ok:
            raise RuntimeError(f"shard {i} simulation failed:\n{res.error}")
        outcome.per_shard.append(res.value)
    return outcome


__all__: Sequence[str] = (
    "MIN_SHARD_LEVELS",
    "ShardedSimOutcome",
    "levels_for_blocks",
    "run_sharded_sim",
    "shard_jobs",
    "split_trace",
)
