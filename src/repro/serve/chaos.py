"""The chaos campaign: fault injection under live serving load.

Every cell of ``BENCH_chaos.json`` serves one workload end-to-end on a
*sealed* stack (BLAKE2b keystream + MAC + Merkle) with a
:class:`~repro.faults.memory.FaultyMemory` armed underneath it, through
the resilient serving loop of :mod:`repro.serve.resilience`. Where the
fault campaign of :mod:`repro.faults.campaign` asks "does the memory
detect and recover?", the chaos campaign asks the serving question:
**what did clients experience while it did?** -- availability, tail
latency under fault, shed/timeout counts, time-to-recover.

The cells escalate:

- ``baseline``  -- no faults; the resilient loop must serve exactly
  like the plain one (availability 1.0, nothing shed).
- ``transient`` -- short outages the ORAM-level retry ladder absorbs
  inline; clients see latency, never errors (availability >= 99%).
- ``tamper``    -- bit flips + replays; detection quarantines buckets,
  serving drops to degraded mode (stash-resident reads + write
  journal) and recovers. Detection must be 100%.
- ``outage``    -- long outages past the retry budget plus dropped
  writes, against a small admission queue: the overload story, load
  shedding by policy instead of unbounded queues.

Like ``BENCH_serve.json``, the ``sim`` block of every cell is a pure
function of the config: seeded workload, seeded ORAM, seed-pinned
stateless fault plan, event-based DRAM clock. CI asserts the
deterministic view is byte-identical across runs and worker counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.sharding.control import HEARTBEAT_NS
from repro.faults.plan import FAULT_KINDS, TAMPER_KINDS, FaultPlan
from repro.oram.recovery import RobustnessConfig
from repro.parallel.executor import CellResult, derive_seed
from repro.report import SCHEMA_VERSION, assemble
from repro.serve.fleet import (
    DRILL_ROBUSTNESS, FleetConfig, ShardArming, fold_shards, serve_fleets,
    write_fleet_trace,
)
from repro.serve.loadgen import WorkloadConfig
from repro.serve.resilience import ResilienceConfig
from repro.serve.schema import CHAOS
from repro.serve.stack import SCHEME

#: Simulated window width of the SLO windows and the ops snapshots.
SLO_WINDOW_NS = 50_000.0


@dataclass(frozen=True)
class ChaosCell:
    """One campaign cell: a workload, a fault plan, a survival policy.

    The ``min_availability`` / ``expect_*`` fields are the cell's CI
    gate, carried inside the report config so :func:`chaos_check` needs
    nothing but the document.
    """

    name: str
    workload: WorkloadConfig
    faults: Optional[FaultPlan]
    resilience: ResilienceConfig
    min_availability: float = 0.0
    expect_faults: bool = False
    expect_episodes: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workload": self.workload.to_dict(),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "resilience": self.resilience.to_dict(),
            "min_availability": self.min_availability,
            "expect_faults": self.expect_faults,
            "expect_episodes": self.expect_episodes,
        }


@dataclass
class ChaosConfig:
    """One chaos-harness invocation (the report's ``config`` block)."""

    #: Every cell serves an AB tree, at most 16 requests per scheduling
    #: round (class constants, not settings).
    scheme: ClassVar[str] = SCHEME
    max_batch: ClassVar[int] = 16
    levels: int = 8
    seed: int = 0
    #: ORAM-level recovery policy every cell's stack runs under. The
    #: retry budget comfortably exceeds the transient cell's longest
    #: outage so short blips recover inline, never via quarantine.
    robustness: RobustnessConfig = field(
        default_factory=lambda: DRILL_ROBUSTNESS
    )
    cells: Sequence[ChaosCell] = ()
    smoke: bool = False
    workers: int = 1
    progress: Any = None   # callable(str) for live cell updates
    trace_out: Optional[str] = None
    trace_cell: Optional[str] = None
    #: Every cell is a fleet of ``num_shards`` shards: the workload is
    #: split by the keyed-PRF partition map, each shard serves its slice
    #: on an independently seeded stack (with a per-shard derived fault
    #: plan), and the parent folds the shard results, drives the control
    #: plane, evaluates SLOs and merges the distributed trace. One shard
    #: is the single-stack campaign, seeded from the config as is.
    num_shards: int = 1
    #: JSONL output paths (sharded campaigns only): the SLO window and
    #: alert records and the per-shard ops stream ``telemetry view``
    #: renders.
    slo_out: Optional[str] = None
    ops_out: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "levels": self.levels,
            "seed": self.seed,
            "max_batch": self.max_batch,
            "robustness": self.robustness.to_dict(),
            "cells": [c.to_dict() for c in self.cells],
            "smoke": self.smoke,
            "num_shards": self.num_shards,
            "heartbeat_ns": HEARTBEAT_NS,
            "slo_window_ns": SLO_WINDOW_NS,
        }

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"--shards must be >= 1, got {self.num_shards}")
        if self.num_shards == 1 and (self.slo_out or self.ops_out):
            raise ValueError("--slo-out/--ops-out require --shards > 1")


# ------------------------------------------------------------------- cells

def _mix(name: str, n_requests: int, stored_keys: int, **kw: Any) -> WorkloadConfig:
    base: Dict[str, Any] = dict(
        name=name,
        n_requests=n_requests,
        n_keys=4_000,
        stored_keys=stored_keys,
        arrival="poisson",
        rate_rps=1_000_000.0,
        zipf_s=0.9,
        read_fraction=0.8,
        delete_fraction=0.02,
        value_bytes=40,
        expect_dedup=False,
    )
    base.update(kw)
    return WorkloadConfig(**base)


#: The ``tamper`` cell's fault plan and survival policy -- also what
#: the capacity curve's kill-a-shard drill arms under its one shard.
TAMPER_FAULTS = FaultPlan(seed=202, rates={"bit_flip": 0.006, "replay": 0.005})
TAMPER_RESILIENCE = ResilienceConfig(
    deadline_ns=4_000_000.0, queue_limit=128,
    retry_budget=8, backoff_base_ns=5_000.0, backoff_factor=1.6,
    journal_limit=96, repair_ns=30_000.0,
)


def _smoke_cells() -> Tuple[ChaosCell, ...]:
    wl = _mix("chaos-mix", 240, 64)
    return (
        ChaosCell(
            name="baseline",
            workload=wl,
            faults=None,
            resilience=ResilienceConfig(),
            min_availability=1.0,
        ),
        ChaosCell(
            name="transient",
            workload=wl,
            faults=FaultPlan(
                seed=101, rates={"unavailable": 0.02}, max_outage_ops=2,
            ),
            resilience=ResilienceConfig(
                deadline_ns=5_000_000.0, queue_limit=64,
            ),
            min_availability=0.99,
            expect_faults=True,
        ),
        ChaosCell(
            name="tamper",
            workload=wl,
            faults=TAMPER_FAULTS,
            resilience=TAMPER_RESILIENCE,
            min_availability=0.90,
            expect_faults=True,
            expect_episodes=True,
        ),
        ChaosCell(
            name="outage",
            workload=_mix(
                "chaos-burst", 240, 64,
                arrival="bursty", rate_rps=900_000.0, burst_factor=5.0,
            ),
            faults=FaultPlan(
                seed=303,
                rates={"unavailable": 0.015, "dropped_write": 0.01},
                max_outage_ops=10,
            ),
            resilience=ResilienceConfig(
                deadline_ns=600_000.0, queue_limit=12,
                shed_policy="drop-oldest",
                retry_budget=4, backoff_base_ns=8_000.0,
                journal_limit=32, repair_ns=25_000.0,
            ),
            min_availability=0.60,
            expect_faults=True,
        ),
    )


def _full_cells() -> Tuple[ChaosCell, ...]:
    scaled = []
    for cell in _smoke_cells():
        wl = replace(cell.workload, n_requests=1200, stored_keys=160)
        scaled.append(replace(cell, workload=wl))
    return tuple(scaled)


def smoke_config(**overrides: Any) -> ChaosConfig:
    """Seconds-scale campaign for CI."""
    base = ChaosConfig(cells=_smoke_cells(), smoke=True)
    return replace(base, **overrides)


def full_config(**overrides: Any) -> ChaosConfig:
    """The nightly soak: same cells, 5x the load, a deeper tree."""
    base = ChaosConfig(levels=10, cells=_full_cells(), smoke=False)
    return replace(base, **overrides)


# ------------------------------------------------------------------ runner

#: The per-shard counters a chaos cell's ``sim`` block sums.
_SUMMED = (
    "requests", "completions", "status", "accesses_issued", "dedup_hits",
    "coalesced_puts", "absent_gets", "scheduler_timeouts", "degraded_reads",
    "journal", "retries", "robust",
)


def _arming(cfg: ChaosConfig, cell: ChaosCell, shard: int) -> ShardArming:
    """One chaos shard's arming: the cell's plan re-seeded per shard,
    the config's robustness and the cell's resilience policy; telemetry
    on the traced cell, the ops sampler under ``--ops-out``.

    Shards serve exactly the keys the fleet-wide keyed-PRF partition map
    assigns them on independently seeded stacks -- the discipline the
    sharded simulator uses, so the split never depends on which process
    runs it. An unsharded campaign keeps the config's stack seed and
    the cell's fault seed.
    """
    sharded = cfg.num_shards > 1

    def seed(base: int) -> int:
        return derive_seed(base, f"shard:{shard}") if sharded else base

    faults = cell.faults
    if faults is not None:
        faults = replace(faults, seed=seed(faults.seed))
    sampler = None
    if cfg.ops_out is not None:
        from repro.telemetry import OpsSampler
        sampler = functools.partial(
            OpsSampler, cell.name, shard, SLO_WINDOW_NS,
        )
    return ShardArming(
        label=f"chaos {cell.name}" + (f"/s{shard}" if sharded else ""),
        seed=seed(cfg.seed), policy=FleetConfig.policy,
        max_batch=cfg.max_batch, robustness=cfg.robustness, faults=faults,
        resilience=cell.resilience,
        traced=cfg.trace_out is not None and cfg.trace_cell == cell.name,
        sampler=sampler, detail=True, observer=not sharded,
    )


def _fold_cell(
    cfg: ChaosConfig, cell: ChaosCell, results: Sequence[CellResult],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """One cell's served shards into its report cell + SLO records.

    The ``sim`` block is :func:`~repro.serve.fleet.fold_shards` over the
    chaos counters. A fleet cell adds the per-shard partials, keeps the
    control block and derives the SLO windows from the fleet's whole
    completion list under the rules the cell's CI gate fields imply; an
    unsharded cell carries the guessing attacker's block instead.
    """
    from repro.telemetry import default_slo_rules, slo_windows

    sim = fold_shards(results, _SUMMED, cell.workload.n_requests)
    shards = [res.value for res in results]
    wall_s = sum(v["wall_s"] for v in shards)
    doc = {
        "name": cell.name,
        "wall_s": wall_s,
        "requests_per_s_wall": (
            sim["completions"] / wall_s if wall_s > 0 else 0.0
        ),
        "sim": sim,
    }
    if cfg.num_shards == 1:
        del sim["control"]
        if "security" in shards[0]["counters"]:
            sim["security"] = shards[0]["counters"]["security"]
        return doc, []
    sim["shards"] = []
    for k, v in enumerate(shards):
        counters, (start_ns, end_ns, episodes) = v["counters"], v["window"]
        partial = {
            "shard": k,
            **{key: counters[key] for key in _SUMMED},
            "availability": counters["availability"],
            "episodes": len(episodes),
            "start_ns": start_ns,
            "end_ns": end_ns,
        }
        if "faults" in counters:
            partial["faults"] = counters["faults"]
        sim["shards"].append(partial)
    deadline = cell.resilience.deadline_ns
    rules = default_slo_rules(
        min_availability=cell.min_availability,
        p99_ns=deadline if deadline > 0 else 2_000_000.0,
        detection=cell.expect_faults,
    )
    records, sim["slo"] = slo_windows(
        rules, SLO_WINDOW_NS, [c for v in shards for c in v["completions"]],
        max(v["window"][1] for v in shards), detection=sim.get("detection"),
    )
    return doc, records


def _write_jsonl(path: str, records: Sequence[Dict[str, Any]]) -> None:
    import json
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def run_chaos(cfg: Optional[ChaosConfig] = None) -> Dict[str, Any]:
    """Run the chaos campaign and return the report document.

    Every cell is a fleet of ``cfg.num_shards`` shards (one, unsharded)
    served through :func:`~repro.serve.fleet.serve_fleets`: all shards
    of all cells are the independent cells of one fan-out, so
    ``cfg.workers > 1`` spreads them over a process pool and the ``sim``
    blocks are byte-identical to a serial run. A cell any of whose
    shards raises becomes an ``{"name", "error"}`` entry.

    ``cfg.num_shards > 1`` folds each cell's shards through the control
    plane, derives the SLO windows from the fleet's completions, writes
    the SLO and ops streams and -- for the traced cell -- merges every
    shard's spans into one distributed Perfetto trace.
    """
    cfg = cfg or smoke_config()
    if not cfg.cells:
        raise ValueError("config has no cells")
    if cfg.trace_out is not None and cfg.trace_cell is None:
        # Default to the cell expected to enter degraded mode -- the
        # timeline with something to show.
        interesting = next(
            (c for c in cfg.cells if c.expect_episodes), cfg.cells[0]
        )
        cfg = replace(cfg, trace_cell=interesting.name)
    fleets = [
        (
            FleetConfig(
                workload=cell.workload, levels=cfg.levels,
                num_shards=cfg.num_shards, seed=cfg.seed,
            ),
            [_arming(cfg, cell, k) for k in range(cfg.num_shards)],
        )
        for cell in cfg.cells
    ]
    served = serve_fleets(fleets, cfg.workers, cfg.progress)
    outputs: List[CellResult] = []
    stream_meta = {
        "type": "meta", "schema_version": SCHEMA_VERSION, "seed": cfg.seed,
        "num_shards": cfg.num_shards, "window_ns": SLO_WINDOW_NS,
    }
    slo_stream: List[Dict[str, Any]] = [
        {**stream_meta, "kind": "repro-slo-stream"}
    ]
    ops_stream: List[Dict[str, Any]] = [
        {**stream_meta, "kind": "repro-ops-stream"}
    ]
    slo_summaries: Dict[str, Any] = {}
    for cell, results in zip(cfg.cells, served):
        errors = [res.error for res in results if not res.ok]
        if errors:
            outputs.append(CellResult(cell.name, False, error=errors[0]))
            continue
        doc, slo_records = _fold_cell(cfg, cell, results)
        shards = [res.value for res in results]
        outputs.append(CellResult(cell.name, True, doc))
        if cfg.trace_out is not None and cfg.trace_cell == cell.name:
            write_fleet_trace(
                cfg.trace_out, shards,
                {"cell": cell.name, "scheme": cfg.scheme,
                 "levels": cfg.levels, "seed": cfg.seed},
                cfg.seed, doc["sim"].get("control"), slo_records,
            )
        if cfg.num_shards == 1:
            continue
        slo_cell = [{**r, "cell": cell.name} for r in slo_records]
        slo_stream.extend(slo_cell)
        slo_summaries[cell.name] = doc["sim"]["slo"]
        ops_stream.extend(sorted(
            (snap for v in shards for snap in v["ops"]),
            key=lambda s: (s["window"], s["shard"]),
        ))
        ops_stream.extend(r for r in slo_cell if r["type"] == "slo_alert")
    slo_stream.append({"type": "summary", "cells": slo_summaries})
    ops_stream.append({"type": "summary", "cells": slo_summaries})
    if cfg.slo_out is not None:
        _write_jsonl(cfg.slo_out, slo_stream)
    if cfg.ops_out is not None:
        _write_jsonl(cfg.ops_out, ops_stream)
    return assemble(
        CHAOS, cfg.to_dict(), [{"name": c.name} for c in cfg.cells], outputs,
    )


# -------------------------------------------------------------------- gate

def fault_gate(label: str, sim: Dict[str, Any], floor: float,
               expect_faults: bool, expect_episodes: bool) -> List[str]:
    """The one fault gate over a served ``sim`` block (a chaos cell's,
    or a scaling drill's drilled shard under the fleet's availability);
    returns findings (empty = pass): availability below ``floor``, an
    injected tamper fault (bit flip / replay) missed *under live load*,
    or expected faults / degraded episodes that never happened -- a
    campaign that injected nothing proves nothing."""
    problems: List[str] = []
    avail = sim.get("availability", 0.0)
    if avail < floor:
        problems.append(
            f"{label}: availability {avail:.4f} below floor {floor:.4f}"
        )
    det = sim.get("detection")
    if det is not None and det["tamper_detected"] < det["tamper_injected"]:
        problems.append(
            f"{label}: tamper detection gap "
            f"({det['tamper_detected']}/{det['tamper_injected']} detected)"
        )
    injected = sim.get("faults", {}).get("injected", {})
    if expect_faults and not sum(injected.get(k, 0) for k in FAULT_KINDS):
        problems.append(f"{label}: expected fault injection, none fired")
    if expect_episodes and sim.get("episodes", {}).get("count", 0) < 1:
        problems.append(
            f"{label}: expected degraded-mode episodes, none occurred"
        )
    return problems


def chaos_check(doc: Dict[str, Any]) -> List[str]:
    """CI gate over one chaos report; returns findings (empty = pass).

    Every served cell goes through :func:`fault_gate` with the gate
    fields its config carries; an errored cell is a finding.
    """
    problems: List[str] = []
    gates = {c["name"]: c for c in doc.get("config", {}).get("cells", [])}
    for cell in doc.get("cells", []):
        name = cell.get("name", "?")
        if "error" in cell:
            problems.append(f"{name}: cell errored, chaos gate unverified")
            continue
        gate = gates.get(name, {})
        problems += fault_gate(
            name, cell.get("sim", {}), gate.get("min_availability", 0.0),
            gate.get("expect_faults", False),
            gate.get("expect_episodes", False),
        )
    return problems


__all__ = [
    "ChaosCell",
    "ChaosConfig",
    "TAMPER_KINDS",
    "chaos_check",
    "fault_gate",
    "full_config",
    "run_chaos",
    "smoke_config",
]
