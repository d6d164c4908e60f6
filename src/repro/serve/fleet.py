"""The serving fleet: N worker shards behind one partition map.

This is the serving-layer face of sharding (the simulator face is
:mod:`repro.core.sharding.sharded`; the partition map and the control
plane both faces share live in :mod:`repro.core.sharding`, which
imports nothing from here): each shard is a complete
:class:`~repro.serve.stack.ServedStack` -- its own ORAM, DRAM model,
clock and scheduler -- and a request stream is split across them by
the keyed-PRF partition map over the request *key*
(:func:`split_shares`, the one share rule). Because one key maps to
exactly one shard, and a share keeps arrival order, the per-key FIFO
contract of the scheduler is inherited verbatim.

Every served report run -- :func:`run_fleet`, ``serve scaling``,
``serve chaos`` and ``serve bench`` (one-shard fleets) -- is one
fan-out (:func:`serve_fleets`) of one shard task
(:func:`_fleet_shard_task`); the parent folds fleets through
:func:`fold_shards` and writes every trace (:func:`write_fleet_trace`).
The fan-out generates each distinct workload once, in the parent, and
cuts every shard's share from it in one pass; a shard is pure in
``(FleetConfig, shard id, ShardArming, share)`` and serves its share on
its own simulated clock -- so an N-shard fleet *is* N serial reference
shards, and the merged per-shard blocks are byte-identical to running
each shard alone (the fleet-vs-serial CI gate). No pool, workload or
cache outlives one fan-out. The fleet's service time is the
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
from repro.serve.loadgen import WorkloadConfig, generate_requests, initial_items
from repro.serve.replay import (
    detection_block, episode_block, percentiles, serve_slice,
)
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


#: A workload's (stored items, requests), or one shard's share of it.
Share = Tuple[List[Tuple[bytes, bytes]], List[Request]]


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


def split_shares(
    items: Sequence[Tuple[bytes, bytes]],
    requests: Sequence[Request],
    pmap: PartitionMap,
) -> List[Share]:
    """Every shard's share of a workload, in one pass -- the one share rule.

    Shard ``k``'s share keeps the items and requests whose key ``pmap``
    routes to ``k``, preserving arrival order and request ids; each
    distinct key's PRF is computed once. Pure: the shares are disjoint
    and cover the input.
    """
    shard_of = {
        key: pmap.shard_of_bytes(key)
        for key in {kv[0] for kv in items} | {r.key for r in requests}
    }
    shares: List[Share] = [([], []) for _ in range(pmap.num_shards)]
    for kv in items:
        shares[shard_of[kv[0]]][0].append(kv)
    for req in requests:
        shares[shard_of[req.key]][1].append(req)
    return shares


def shard_requests(cfg: FleetConfig, shard: int) -> Share:
    """The slice of the fleet workload one shard owns.

    Regenerates the full workload (a pure function of its config) and
    keeps ``shard``'s share through :func:`split_shares` -- this is the
    "serial reference shard" the fleet-vs-serial identity gate
    quantifies over.
    """
    return split_shares(
        initial_items(cfg.workload), generate_requests(cfg.workload),
        PartitionMap(cfg.num_shards, seed=cfg.seed),
    )[shard]


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

    The parent computes it per shard, so every served cell is one task:
    a fleet arms its drilled shard with the drill (:func:`fleet_arming`),
    a chaos cell every shard with its re-seeded plan, a bench cell its
    one shard with its scheduler ``policy``. ``traced`` records op
    spans, ``sampler`` (an ``OpsSampler`` factory over the built stack)
    ops snapshots, ``detail`` ships the slice's counters, completions,
    spans, events and ops records back for the bench and chaos folds,
    and ``observer`` runs the guessing attacker, whose ``security``
    block only bench and unsharded chaos cells keep.
    """

    label: str
    seed: int
    policy: str
    max_batch: int
    robustness: Optional[RobustnessConfig]
    faults: Optional[FaultPlan]
    resilience: Optional[ResilienceConfig]
    traced: bool
    sampler: Optional[Callable[[Any], Any]]
    detail: bool
    observer: bool


def fleet_arming(cfg: FleetConfig, shard: int) -> ShardArming:
    """A fleet shard's arming: the drill's plan on shard ``DRILL_SHARD``
    (a sealed stack under the drill's policy), nothing elsewhere (an
    unsealed stack under the null policy)."""
    drill = cfg.drill if shard == DRILL_SHARD else None
    return ShardArming(
        label=f"shard {shard}/{cfg.num_shards}{' [drill]' if drill else ''}",
        seed=derive_seed(cfg.seed, f"shard:{shard}"),
        policy=cfg.policy, max_batch=cfg.max_batch,
        robustness=drill.robustness if drill else None,
        faults=drill.faults if drill else None,
        resilience=drill.resilience if drill else None,
        traced=False, sampler=None, detail=False, observer=False,
    )


def _fleet_shard_task(payload: Tuple[Any, ...]) -> Dict[str, Any]:
    """Serve one shard's slice end-to-end; the one served cell task.

    ``payload`` is ``(cfg, shard, arming, share)`` as
    :func:`serve_fleets` ships it, or ``(cfg, shard)`` -- the serial
    reference shard -- for its :func:`fleet_arming` and
    :func:`shard_requests` share (the same :func:`split_shares` cut of
    the regenerated workload). Pure in (cfg, shard, arming, share), so
    the result is identical in-process, in a pool worker or alone, and
    no state crosses calls. Returns the shard's deterministic report
    block, its serving window and degraded episodes (the control
    plane's input), its served latencies and -- under
    ``arming.detail`` -- the rest of the slice. ``wall_s``, the host
    serving time, stays out of every deterministic view.
    """
    cfg, shard = payload[:2]
    arming, (items, reqs) = payload[2:] or (
        fleet_arming(cfg, shard), shard_requests(cfg, shard),
    )
    report_progress(f"{arming.label} ...")
    telemetry = None
    if arming.traced:
        from repro.telemetry import Telemetry
        telemetry = Telemetry()
    served = serve_slice(
        items, reqs, scheme=cfg.scheme, levels=cfg.levels, seed=arming.seed,
        policy=arming.policy, max_batch=arming.max_batch,
        robustness=arming.robustness, fault_plan=arming.faults,
        resilience=arming.resilience, telemetry=telemetry,
        sampler=arming.sampler, observer=arming.observer,
    )
    result, counters = served.result, served.counters
    latencies = served.served_latencies
    sim: Dict[str, Any] = {
        k: counters[k] for k in _SHARD_SIM_FIELDS if k in counters
    }
    sim["latency_ns"] = percentiles(latencies)
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
        "wall_s": result.wall_s,
    }
    if arming.detail:
        out.update(
            counters=counters,
            completions=result.completions,
            spans=list(telemetry.spans) if telemetry else [],
            events=list(result.events) if telemetry else [],
            ops=list(served.sampler.records) if served.sampler else [],
        )
    return out


def serve_fleets(
    fleets: Sequence[Tuple[FleetConfig, Sequence[ShardArming]]],
    workers: int,
    progress: Any,
) -> List[List[CellResult]]:
    """The one fan-out: every shard of every fleet as one cell of one
    :func:`run_cells` call (``workers > 1`` uses the process pool; the
    results are identical at any worker count). Each distinct workload
    is generated once, here, and every fleet's shares are cut from it
    in one :func:`split_shares` pass; a shard's cell carries its share.
    Returns each fleet's shard results in shard order."""
    generated: Dict[WorkloadConfig, Share] = {}
    tasks = []
    for cfg, armings in fleets:
        wl = cfg.workload
        if wl not in generated:
            generated[wl] = initial_items(wl), generate_requests(wl)
        shares = split_shares(
            *generated[wl], PartitionMap(cfg.num_shards, seed=cfg.seed),
        )
        worker_cfg = replace(cfg, progress=None, workers=1)
        tasks += [
            Cell(arming.label, (worker_cfg, k, arming, shares[k]))
            for k, arming in enumerate(armings)
        ]
    outputs = iter(run_cells(
        _fleet_shard_task, tasks, workers=workers, progress=progress,
    ))
    return [[next(outputs) for _ in armings] for _, armings in fleets]


def write_fleet_trace(
    path: str, shards: Sequence[Dict[str, Any]], meta: Dict[str, Any],
    seed: int, control: Optional[Dict[str, Any]] = None,
    slo_records: Sequence[Dict[str, Any]] = (),
) -> None:
    """The one trace writer, run by the parent over a traced cell's
    shipped ``detail`` values: one shard's request trace (with its
    resilience track), or N shards merged with the ``control`` and SLO
    timelines."""
    from repro.telemetry import (
        ShardFragment, fleet_trace_doc, request_trace_doc, slo_instants,
        write_trace,
    )
    from repro.telemetry.fleet import SLO_TID

    if len(shards) == 1:
        (v,) = shards
        doc = request_trace_doc(v["completions"], v["spans"], meta=meta,
                                resilience_events=v["events"])
    else:
        doc = fleet_trace_doc(
            [ShardFragment(k, v["completions"], v["spans"], v["events"])
             for k, v in enumerate(shards)],
            seed=seed, meta={**meta, "num_shards": len(shards)},
            control=control, slo_instants=slo_instants(slo_records, SLO_TID),
        )
    write_trace(doc, path)


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
        "latency_ns": percentiles(
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
    through :func:`fleet_doc`.
    """
    if cfg.num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {cfg.num_shards}")
    armings = [fleet_arming(cfg, k) for k in range(cfg.num_shards)]
    return fleet_doc(
        cfg, serve_fleets([(cfg, armings)], cfg.workers, cfg.progress)[0],
    )


def fleet_doc(cfg: FleetConfig, results: Sequence[CellResult]) -> Dict[str, Any]:
    """One fleet's shard results, folded through :func:`fold_shards`,
    as its fleet block. A shard whose worker raised becomes an
    ``{"shard", "error"}`` entry; it stays ``registered`` -- never
    healthy, which fails ``all_healthy``."""
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
    "fleet_doc",
    "fold_shards",
    "run_fleet",
    "serve_fleets",
    "shard_requests",
    "split_shares",
    "write_fleet_trace",
    "_fleet_shard_task",
]
