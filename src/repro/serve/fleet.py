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
contract of the scheduler is inherited verbatim: operations on one key
all land on one scheduler in arrival order.

:func:`run_fleet` runs each shard as one cell of
:func:`repro.parallel.executor.run_cells`, rebuilt in its worker from
``(FleetConfig, shard id)`` alone. A shard regenerates the full
workload, keeps exactly its share, and serves it on its own simulated
clock -- so an N-shard fleet *is* N independently-run serial reference
shards by construction, and the merged per-shard blocks are
byte-identical to running each shard alone (the fleet-vs-serial CI
gate).

Fleet timing: shards drain concurrently, so the fleet's service time
for a window of requests is the *makespan* -- the slowest shard's
simulated serving window -- and fleet throughput is total completions
over that makespan. That is the quantity the capacity benchmark's
>=3x-at-4-shards gate measures.

The fleet also carries the minimal control plane
(:mod:`repro.core.sharding.control`): every shard cell returns its
serving window and degraded episodes on its simulated clock, and the
parent derives each shard's health log from them. The
``kill-a-shard-under-load`` drill arms a fault plan under exactly one
shard (a sealed chaos stack), which drives that shard through
quarantine -> degraded serving -> rebuild while the rest of the fleet
serves untouched -- PR 2's recovery ladder and PR 7's degraded mode,
exercised at fleet scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.sharding.control import ShardWindow, control_block
from repro.core.sharding.partition import PartitionMap
from repro.faults.plan import FaultPlan
from repro.oram.recovery import RobustnessConfig
from repro.parallel.executor import Cell, derive_seed, report_progress, run_cells
from repro.serve.bench import _percentiles
from repro.serve.loadgen import WorkloadConfig, generate_requests, initial_items
from repro.serve.replay import serve_slice
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
#: degraded-mode ones exist on the drilled shard only).
_SHARD_SIM_FIELDS = (
    "requests", "completions", "status", "availability", "accesses_issued",
    "dedup_hits", "coalesced_puts", "absent_gets", "sim_ns",
    "degraded_reads", "retries", "journal", "episodes", "faults",
    "detection",
)


def _fleet_shard_task(payload: Tuple[FleetConfig, int]) -> Dict[str, Any]:
    """Serve one shard's slice end-to-end; the unit of fleet fan-out.

    Pure in ``(cfg, shard)``: workload, partition map, stack seed and
    scheduler seed are all derived from the payload, so the result is
    identical whether the shard runs in-process, in a spawn worker, or
    alone as a serial reference. Returns the shard's deterministic
    report block plus its serving window and degraded episodes (what
    the control plane derives its health log from) and the latency
    samples the parent folds into fleet percentiles. No wall-clock
    fields: everything here lands in the deterministic view.
    """
    cfg, shard = payload
    drilled = cfg.drill is not None and shard == DRILL_SHARD
    report_progress(
        f"shard {shard}/{cfg.num_shards}{' [drill]' if drilled else ''} ..."
    )
    items, reqs = shard_requests(cfg, shard)
    # The drilled shard is a sealed stack served under the drill's
    # policy; every other shard is unsealed, under the null policy.
    armed: Dict[str, Any] = {} if not drilled else {
        "robustness": cfg.drill.robustness,
        "fault_plan": cfg.drill.faults,
        "resilience": cfg.drill.resilience,
    }
    served = serve_slice(
        items, reqs, scheme=cfg.scheme, levels=cfg.levels,
        seed=derive_seed(cfg.seed, f"shard:{shard}"),
        max_batch=cfg.max_batch, **armed,
    )
    result, counters = served.result, served.counters
    latencies = served.served_latencies
    sim: Dict[str, Any] = {
        k: counters[k] for k in _SHARD_SIM_FIELDS if k in counters
    }
    sim["latency_ns"] = _percentiles(latencies)
    return {
        "cell": {
            "shard": shard,
            "drill": drilled,
            "stored_keys": len(items),
            "sim": sim,
        },
        "window": (result.start_ns, result.end_ns, list(result.episodes)),
        "latencies": latencies,
    }


def run_fleet(cfg: FleetConfig) -> Dict[str, Any]:
    """Serve one workload across the fleet; returns the fleet block.

    Fans the shards over :func:`run_cells` (``cfg.workers > 1`` uses
    the spawn pool; the merged result is byte-identical at any worker
    count), derives every shard's health log from its serving window
    (:func:`~repro.core.sharding.control.control_block`), and folds
    per-shard telemetry snapshots in shard order. A shard whose worker
    raises becomes an ``{"shard", "error"}`` entry; it stays
    ``registered`` -- never healthy, which fails ``all_healthy``.
    """
    if cfg.num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {cfg.num_shards}")
    worker_cfg = replace(cfg, progress=None, workers=1)
    outputs = run_cells(
        _fleet_shard_task,
        [Cell(f"shard:{i}", (worker_cfg, i)) for i in range(cfg.num_shards)],
        workers=cfg.workers,
        progress=cfg.progress,
    )
    shards: List[Dict[str, Any]] = []
    windows: Dict[int, ShardWindow] = {}
    latencies: List[float] = []
    failed: List[int] = []
    for i, res in enumerate(outputs):
        if not res.ok:
            shards.append({"shard": i, "error": res.error})
            failed.append(i)
            continue
        shards.append(res.value["cell"])
        windows[i] = res.value["window"]
        latencies.extend(res.value["latencies"])
    ok_cells = [s for s in shards if "error" not in s]
    completions = sum(s["sim"]["completions"] for s in ok_cells)
    requests = sum(s["sim"]["requests"] for s in ok_cells)
    served = sum(s["sim"]["status"][OK] for s in ok_cells)
    makespan = max((s["sim"]["sim_ns"] for s in ok_cells), default=0.0)
    status: Dict[str, int] = {s: 0 for s in STATUSES}
    for cell in ok_cells:
        for key, count in cell["sim"]["status"].items():
            status[key] += count
    fleet: Dict[str, Any] = {
        "requests": requests,
        "completions": completions,
        "status": status,
        # Answered over *attempted*: an errored shard's requests stay
        # in the denominator (they were asked and not served).
        "availability": served / cfg.workload.n_requests,
        "makespan_ns": makespan,
        "ns_per_request": makespan / completions if completions else 0.0,
        "requests_per_s_sim": (
            completions / (makespan / 1e9) if makespan > 0 else 0.0
        ),
        "latency_ns": _percentiles(latencies),
    }
    doc: Dict[str, Any] = {
        "num_shards": cfg.num_shards,
        "shards": shards,
        "fleet": fleet,
        "control": control_block(windows, failed),
    }
    if failed:
        doc["error"] = "one or more shards failed"
    return doc


__all__ = [
    "DRILL_ROBUSTNESS",
    "FleetConfig",
    "KillShardDrill",
    "run_fleet",
    "shard_requests",
    "shard_share",
    "_fleet_shard_task",
]
