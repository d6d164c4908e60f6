"""The serving fleet: N worker shards behind one partition map.

This is the serving-layer face of sharding (the simulator face is
:mod:`repro.core.sharding.sharded`; the partition map and the control
plane both faces share live in :mod:`repro.core.sharding`, which
imports nothing from here): each shard is a complete
:class:`~repro.serve.stack.ServedStack` -- its own ORAM, DRAM model,
clock and scheduler -- and a request stream is split across them by
the keyed-PRF partition map over the request *key*
(:func:`shard_share`, the one share rule). Because one key maps to
exactly one shard, and a share keeps arrival order, the per-key FIFO
contract of the scheduler is inherited verbatim.

Every sharded run -- :func:`run_fleet`, ``serve scaling``'s cells and
``serve chaos --shards N`` -- is one fan-out (:func:`serve_fleets`) of
one shard task (:func:`_fleet_shard_task`), rebuilt in its worker from
``(FleetConfig, shard id, ShardArming)`` alone, and one fold
(:func:`fold_shards`). A shard regenerates the full workload, keeps
exactly its share, and serves it on its own simulated clock -- so an
N-shard fleet *is* N independently-run serial reference shards, and
the merged per-shard blocks are byte-identical to running each shard
alone (the fleet-vs-serial CI gate). The fleet's service time is the
*makespan* -- the slowest shard's simulated serving window -- and its
throughput total completions over that makespan; the control plane
(:mod:`repro.core.sharding.control`) derives each shard's health log
from its window and degraded episodes. The ``kill-a-shard-under-load``
drill arms one shard as a sealed chaos stack, which drives it through
quarantine -> degraded serving -> rebuild while the rest of the fleet
serves untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple,
)

from repro.core.sharding.control import control_block
from repro.core.sharding.partition import PartitionMap
from repro.faults.plan import FaultPlan
from repro.oram.recovery import RobustnessConfig
from repro.parallel.executor import (
    Cell, CellResult, derive_seed, report_progress, run_cells,
)
from repro.serve.bench import _percentiles
from repro.serve.loadgen import WorkloadConfig, generate_requests, initial_items
from repro.serve.replay import detection_block, episode_block, serve_slice
from repro.serve.request import OK, STATUSES, Request
from repro.serve.resilience import ResilienceConfig
from repro.serve.scheduler import MAX_BATCH
from repro.serve.stack import SCHEME

#: ORAM-level recovery policy of every armed sealed stack -- a drilled
#: shard's and the chaos campaign's alike: a retry budget past the
#: longest transient outage, so blips recover inline and only
#: persistent tamper escalates to quarantine-and-rebuild.
DRILL_ROBUSTNESS = RobustnessConfig(integrity=True, retry_budget=6)
#: The shard a kill-a-shard drill arms, and the fleet availability it
#: must stay above.
DRILL_SHARD = 0
DRILL_MIN_AVAILABILITY = 0.90


@dataclass(frozen=True)
class KillShardDrill:
    """Kill-a-shard-under-load: shard ``DRILL_SHARD`` serves through a
    fault plan.

    The drilled shard is built as a sealed chaos stack
    (BLAKE2b keystream + MAC + Merkle with a
    :class:`~repro.faults.memory.FaultyMemory` underneath) and served
    through :func:`~repro.serve.resilience.resilient_replay`; every
    other shard serves normally. The fleet gate then asks: did the
    drilled shard's quarantine-and-rebuild complete (control plane back
    to all-healthy) and did clients keep being answered (availability
    above the floor) while it happened?
    """

    faults: Optional[FaultPlan] = None
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    robustness: RobustnessConfig = field(
        default_factory=lambda: DRILL_ROBUSTNESS
    )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": DRILL_SHARD,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "resilience": self.resilience.to_dict(),
            "min_availability": DRILL_MIN_AVAILABILITY,
            "robustness": self.robustness.to_dict(),
        }


@dataclass
class FleetConfig:
    """One fleet serving run: workload, shard count, optional drill."""

    workload: WorkloadConfig
    #: Every shard serves an AB tree under the batch policy, at most
    #: 32 requests per scheduling round (class constants, not settings).
    scheme: ClassVar[str] = SCHEME
    policy: ClassVar[str] = "batch"
    max_batch: ClassVar[int] = MAX_BATCH
    #: Per-shard tree depth (every subtree runs at the same depth so
    #: per-access costs are comparable across shard counts).
    levels: int = 9
    num_shards: int = 4
    seed: int = 0
    drill: Optional[KillShardDrill] = None
    workers: int = 1
    progress: Any = None   # callable(str) for live shard updates


def shard_share(
    items: Sequence[Tuple[bytes, bytes]],
    requests: Sequence[Request],
    pmap: PartitionMap,
    shard: int,
) -> Tuple[List[Tuple[bytes, bytes]], List[Request]]:
    """The share of a workload one shard owns -- the one share rule.

    Keeps the items and requests whose key ``pmap`` routes to
    ``shard``, preserving arrival order and request ids. Pure: shares
    over all shards are disjoint and cover the input.
    """
    return (
        [kv for kv in items if pmap.shard_of_bytes(kv[0]) == shard],
        [r for r in requests if pmap.shard_of_bytes(r.key) == shard],
    )


def shard_requests(
    cfg: FleetConfig, shard: int
) -> Tuple[List[Tuple[bytes, bytes]], List[Request]]:
    """The slice of the fleet workload one shard owns.

    Regenerates the full workload (a pure function of its config) and
    keeps ``shard``'s share -- this is the "serial reference shard" the
    fleet-vs-serial identity gate quantifies over.
    """
    return shard_share(
        initial_items(cfg.workload), generate_requests(cfg.workload),
        PartitionMap(cfg.num_shards, seed=cfg.seed), shard,
    )


#: The served-slice counters a shard's ``sim`` block carries (the
#: degraded-mode ones exist on an armed shard only).
_SHARD_SIM_FIELDS = (
    "requests", "completions", "status", "availability", "accesses_issued",
    "dedup_hits", "coalesced_puts", "absent_gets", "sim_ns",
    "degraded_reads", "retries", "journal", "episodes", "faults",
    "detection",
)
#: The counters a fleet block sums over its served shards.
_FLEET_SUMMED = ("requests", "completions", "status")


@dataclass(frozen=True)
class ShardArming:
    """What one shard serves under beyond the fleet's workload and tree.

    The parent computes it per shard, so every sharded run is one task:
    a fleet arms its drilled shard with the drill as given
    (:func:`fleet_arming`); a chaos cell arms every shard with its own
    re-seeded plan. ``traced`` records the shard's op spans, ``sampler``
    (an ``OpsSampler`` factory over the built stack) its ops snapshots,
    and ``detail`` ships the slice's counters, completions, spans,
    events, ops records and wall time back for the chaos fold; a fleet
    shard ships only what its fold reads.
    """

    label: str
    seed: int
    max_batch: int
    robustness: Optional[RobustnessConfig]
    faults: Optional[FaultPlan]
    resilience: Optional[ResilienceConfig]
    traced: bool
    sampler: Optional[Callable[[Any], Any]]
    detail: bool


def fleet_arming(cfg: FleetConfig, shard: int) -> ShardArming:
    """A fleet shard's arming: the drill's plan on shard ``DRILL_SHARD``
    (a sealed stack under the drill's policy), nothing elsewhere (an
    unsealed stack under the null policy)."""
    drill = cfg.drill if shard == DRILL_SHARD else None
    return ShardArming(
        label=f"shard {shard}/{cfg.num_shards}{' [drill]' if drill else ''}",
        seed=derive_seed(cfg.seed, f"shard:{shard}"),
        max_batch=cfg.max_batch,
        robustness=drill.robustness if drill else None,
        faults=drill.faults if drill else None,
        resilience=drill.resilience if drill else None,
        traced=False, sampler=None, detail=False,
    )


def _fleet_shard_task(payload: Tuple[Any, ...]) -> Dict[str, Any]:
    """Serve one shard's slice end-to-end; the one unit of shard fan-out.

    ``payload`` is ``(cfg, shard, arming)``, or ``(cfg, shard)`` for
    the shard's :func:`fleet_arming`. Pure in the payload: workload,
    partition map, stack seed and scheduler seed are all derived from
    it, so the result is identical whether the shard runs in-process,
    in a spawn worker, or alone as a serial reference. Returns the
    shard's deterministic report block plus its serving window and
    degraded episodes (what the control plane derives its health log
    from) and the latency samples the parent folds into fleet
    percentiles -- and, under ``arming.detail``, the rest of the slice.
    No wall-clock fields outside the detail: everything else lands in
    the deterministic view.
    """
    cfg, shard = payload[:2]
    arming = payload[2] if len(payload) > 2 else fleet_arming(cfg, shard)
    report_progress(f"{arming.label} ...")
    items, reqs = shard_requests(cfg, shard)
    telemetry = None
    if arming.traced:
        from repro.telemetry import Telemetry
        telemetry = Telemetry()
    served = serve_slice(
        items, reqs, scheme=cfg.scheme, levels=cfg.levels, seed=arming.seed,
        max_batch=arming.max_batch, robustness=arming.robustness,
        fault_plan=arming.faults, resilience=arming.resilience,
        telemetry=telemetry, sampler=arming.sampler,
    )
    result, counters = served.result, served.counters
    latencies = served.served_latencies
    sim: Dict[str, Any] = {
        k: counters[k] for k in _SHARD_SIM_FIELDS if k in counters
    }
    sim["latency_ns"] = _percentiles(latencies)
    out: Dict[str, Any] = {
        "cell": {
            "shard": shard,
            # Only the drilled shard of a fleet serves under a policy.
            "drill": arming.resilience is not None,
            "stored_keys": len(items),
            "sim": sim,
        },
        "window": (result.start_ns, result.end_ns, list(result.episodes)),
        "latencies": latencies,
    }
    if arming.detail:
        out.update(
            counters=counters,
            completions=result.completions,
            spans=list(telemetry.spans) if telemetry else [],
            events=list(result.events) if telemetry else [],
            ops=list(served.sampler.records) if served.sampler else [],
            wall_s=result.wall_s,
        )
    return out


def serve_fleets(
    fleets: Sequence[Tuple[FleetConfig, Sequence[ShardArming]]],
    workers: int,
    progress: Any,
) -> List[List[CellResult]]:
    """The one fan-out: every shard of every fleet as one cell of one
    :func:`run_cells` call (``workers > 1`` uses the spawn pool; the
    results are identical at any worker count). Returns each fleet's
    shard results in shard order."""
    tasks = [
        Cell(arming.label, (replace(cfg, progress=None, workers=1), k, arming))
        for cfg, armings in fleets for k, arming in enumerate(armings)
    ]
    outputs = iter(run_cells(
        _fleet_shard_task, tasks, workers=workers, progress=progress,
    ))
    return [[next(outputs) for _ in armings] for _, armings in fleets]


def _sum_tree(blocks: Sequence[Any]) -> Any:
    """Element-wise sum of parallel dict-of-numbers trees."""
    if isinstance(blocks[0], dict):
        return {k: _sum_tree([b[k] for b in blocks]) for k in blocks[0]}
    return sum(blocks)


def fold_shards(
    results: Sequence[CellResult],
    summed: Sequence[str],
    attempted: int,
) -> Dict[str, Any]:
    """The one fold: a fleet's shard results into one ``sim`` block.

    Sums the ``summed`` counters of every served shard (its shipped
    ``counters`` under ``detail``, else its cell's ``sim``) and the
    fault tallies where the shards carry them; availability is answered
    over ``attempted`` (an errored shard's requests stay asked);
    ``sim_ns`` is the slowest shard's own serving window (each shard
    runs on its own clock); latency percentiles re-derive from the
    concatenated served latencies in shard order; ``control`` is the
    health log every shard's window and episodes imply, an errored
    shard left ``registered``. Everything is derived from worker-returned
    simulated state only -- byte-identical at any worker count.
    """
    served = {k: res.value for k, res in enumerate(results) if res.ok}
    counts = [v.get("counters", v["cell"]["sim"]) for v in served.values()]
    sim: Dict[str, Any] = _sum_tree(
        [{k: c[k] for k in summed} for c in counts]
        or [{"requests": 0, "completions": 0,
             "status": dict.fromkeys(STATUSES, 0)}]
    )
    windows = {k: v["window"] for k, v in served.items()}
    makespan = max((end - start for start, end, _ in windows.values()),
                   default=0.0)
    sim.update({
        "availability": sim["status"][OK] / attempted if attempted else 1.0,
        "episodes": episode_block(
            [e for _, _, episodes in windows.values() for e in episodes]
        ),
        "sim_ns": makespan,
        "requests_per_s_sim": (
            sim["completions"] / (makespan / 1e9) if makespan > 0 else 0.0
        ),
        "latency_ns": _percentiles(
            [lat for v in served.values() for lat in v["latencies"]]
        ),
        "control": control_block(
            windows, [k for k, res in enumerate(results) if not res.ok],
        ),
    })
    faults = [c["faults"] for c in counts if "faults" in c]
    if faults:
        sim["faults"] = _sum_tree(faults)
        sim["detection"] = detection_block(sim["faults"])
    return sim


def run_fleet(cfg: FleetConfig) -> Dict[str, Any]:
    """Serve one workload across the fleet; returns the fleet block.

    Fans the shards out through :func:`serve_fleets` and folds them
    through :func:`fold_shards`. A shard whose worker raises becomes an
    ``{"shard", "error"}`` entry; it stays ``registered`` -- never
    healthy, which fails ``all_healthy``.
    """
    if cfg.num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {cfg.num_shards}")
    armings = [fleet_arming(cfg, k) for k in range(cfg.num_shards)]
    results = serve_fleets([(cfg, armings)], cfg.workers, cfg.progress)[0]
    sim = fold_shards(results, _FLEET_SUMMED, cfg.workload.n_requests)
    makespan, completions = sim["sim_ns"], sim["completions"]
    doc: Dict[str, Any] = {
        "num_shards": cfg.num_shards,
        "shards": [
            res.value["cell"] if res.ok else {"shard": k, "error": res.error}
            for k, res in enumerate(results)
        ],
        "fleet": {
            **{k: sim[k] for k in (*_FLEET_SUMMED, "availability")},
            "makespan_ns": makespan,
            "ns_per_request": makespan / completions if completions else 0.0,
            "requests_per_s_sim": sim["requests_per_s_sim"],
            "latency_ns": sim["latency_ns"],
        },
        "control": sim["control"],
    }
    if not all(res.ok for res in results):
        doc["error"] = "one or more shards failed"
    return doc


__all__ = [
    "DRILL_ROBUSTNESS",
    "FleetConfig",
    "KillShardDrill",
    "ShardArming",
    "fleet_arming",
    "fold_shards",
    "run_fleet",
    "serve_fleets",
    "shard_requests",
    "shard_share",
    "_fleet_shard_task",
]
