"""The chaos campaign: fault injection under live serving load.

Every cell of ``BENCH_chaos.json`` serves one workload end-to-end on a
*sealed* stack (ChaCha20 + MAC + Merkle) with a
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

from repro.core.sharding.control import HEARTBEAT_NS, control_block
from repro.core.sharding.partition import PartitionMap
from repro.faults.plan import FAULT_KINDS, TAMPER_KINDS, FaultPlan
from repro.oram.recovery import RobustnessConfig
from repro.parallel.executor import (
    Cell, CellResult, derive_seed, report_progress, run_cells,
)
from repro.report import SCHEMA_VERSION, assemble
from repro.serve.bench import _percentiles
from repro.serve.fleet import DRILL_ROBUSTNESS, shard_share
from repro.serve.loadgen import (
    WorkloadConfig, generate_requests, initial_items,
)
from repro.serve.request import OK
from repro.serve.replay import detection_block, episode_block, serve_slice
from repro.serve.resilience import ResilienceConfig
from repro.serve.schema import CHAOS
from repro.serve.stack import SCHEME
from repro.telemetry import request_trace_doc, write_trace

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
    #: ``num_shards > 1`` runs every cell as a partitioned fleet: the
    #: workload is split by the keyed-PRF partition map, each shard
    #: serves its slice on an independent seeded stack (with a
    #: per-shard derived fault plan), and the parent folds the shard
    #: results, drives the control plane, evaluates SLOs and merges
    #: the distributed trace. ``num_shards == 1`` is the exact PR-7
    #: single-stack path.
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

#: The per-slice counters a report ``sim`` block sums across slices.
_SUMMED = (
    "requests", "completions", "status", "accesses_issued", "dedup_hits",
    "coalesced_puts", "absent_gets", "scheduler_timeouts", "degraded_reads",
    "journal", "retries", "robust",
)


def _chaos_slice(
    cfg: ChaosConfig, cell: ChaosCell, shard: Optional[int]
) -> Dict[str, Any]:
    """Serve one cell's slice: the whole cell, or one shard of it.

    ``shard=None`` is the single-stack campaign (stack and fault plan
    seeded from the config). A shard serves exactly the keys the
    fleet-wide keyed-PRF partition map assigns it, on an independently
    seeded stack with an independently seeded fault plan -- the same
    discipline the sharded simulator uses, so the split never depends
    on which process runs it.
    """
    seed, faults = cfg.seed, cell.faults
    items, requests = initial_items(cell.workload), generate_requests(cell.workload)
    if shard is not None:
        seed = derive_seed(cfg.seed, f"shard:{shard}")
        if faults is not None:
            faults = replace(
                faults, seed=derive_seed(faults.seed, f"shard:{shard}"),
            )
        items, requests = shard_share(
            items, requests, PartitionMap(cfg.num_shards, seed=cfg.seed),
            shard,
        )
    want_trace = cfg.trace_out is not None and cfg.trace_cell == cell.name
    telemetry = None
    if want_trace:
        from repro.telemetry import Telemetry
        telemetry = Telemetry(meta={
            "cell": cell.name, "scheme": cfg.scheme,
            "levels": cfg.levels, "seed": cfg.seed,
        })
    sampler = None
    if cfg.ops_out is not None and shard is not None:
        from repro.telemetry import OpsSampler
        sampler = functools.partial(
            OpsSampler, cell.name, shard, SLO_WINDOW_NS,
        )
    served = serve_slice(
        items, requests, scheme=cfg.scheme, levels=cfg.levels, seed=seed,
        max_batch=cfg.max_batch, robustness=cfg.robustness,
        fault_plan=faults, resilience=cell.resilience,
        telemetry=telemetry, sampler=sampler,
    )
    result, counters = served.result, served.counters
    partial: Dict[str, Any] = {
        "shard": shard or 0,
        **{k: counters[k] for k in _SUMMED},
        "availability": counters["availability"],
        "episodes": counters["episodes"]["count"],
        "start_ns": result.start_ns,
        "end_ns": result.end_ns,
    }
    if "faults" in counters:
        partial["faults"] = counters["faults"]
    return {
        "partial": partial,
        "episode_list": list(result.episodes),
        "latencies": served.served_latencies,
        "completions": result.completions,
        "spans": list(telemetry.spans) if want_trace else None,
        "events": list(result.events) if want_trace else None,
        "trace_meta": telemetry.meta if want_trace else None,
        "ops_records": (
            list(served.sampler.records) if served.sampler is not None else []
        ),
        "security": counters.get("security"),
        "wall_s": result.wall_s,
    }


def _sum_tree(blocks: Sequence[Any]) -> Any:
    """Element-wise sum of parallel dict-of-numbers trees."""
    if isinstance(blocks[0], dict):
        return {k: _sum_tree([b[k] for b in blocks]) for k in blocks[0]}
    return sum(blocks)


def _fold_slices(
    name: str, outputs: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold a cell's slice outputs (one, or one per shard) into its cell.

    Counts sum; latency percentiles re-derive from the concatenated
    served latencies (slice order, so the fold is a pure function of
    the outputs); ``sim_ns`` is the slowest slice's own serving window
    (each shard runs on its own clock), the makespan rule of
    :func:`repro.serve.fleet.run_fleet`. Everything the ``sim`` block
    carries is derived from worker-returned simulated state only --
    byte-identical at any worker count.
    """
    partials = [o["partial"] for o in outputs]
    sim: Dict[str, Any] = _sum_tree([
        {k: p[k] for k in _SUMMED} for p in partials
    ])
    n_comps = sim["completions"]
    sim_ns = max(p["end_ns"] - p["start_ns"] for p in partials)
    sim_s = sim_ns / 1e9
    sim.update({
        "availability": (
            sim["status"][OK] / sim["requests"] if sim["requests"] else 1.0
        ),
        "episodes": episode_block(
            [e for o in outputs for e in o["episode_list"]]
        ),
        "sim_ns": sim_ns,
        "requests_per_s_sim": n_comps / sim_s if sim_s > 0 else 0.0,
        "latency_ns": _percentiles(
            [lat for o in outputs for lat in o["latencies"]]
        ),
    })
    if any("faults" in p for p in partials):
        sim["faults"] = _sum_tree(
            [p["faults"] for p in partials if "faults" in p]
        )
        sim["detection"] = detection_block(sim["faults"])
    wall_s = sum(o["wall_s"] for o in outputs)
    return {
        "name": name,
        "wall_s": wall_s,
        "requests_per_s_wall": n_comps / wall_s if wall_s > 0 else 0.0,
        "sim": sim,
    }


def _chaos_cell_task(payload: Tuple[ChaosConfig, ChaosCell]) -> Dict[str, Any]:
    """One campaign cell, runnable in-process or in a spawn worker."""
    cfg, cell = payload
    report_progress(f"chaos {cell.name} ...")
    out = _chaos_slice(cfg, cell, None)
    doc = _fold_slices(cell.name, [out])
    if out["security"] is not None:
        doc["sim"]["security"] = out["security"]
    if out["spans"] is not None:
        write_trace(request_trace_doc(
            out["completions"], out["spans"], meta=out["trace_meta"],
            resilience_events=out["events"],
        ), cfg.trace_out)
    return doc


# ----------------------------------------------------------- sharded runner

def _chaos_shard_task(
    payload: Tuple[ChaosConfig, ChaosCell, int],
) -> Dict[str, Any]:
    """One shard of one campaign cell, runnable in a spawn worker."""
    cfg, cell, shard = payload
    report_progress(f"chaos {cell.name}/s{shard} ...")
    return _chaos_slice(cfg, cell, shard)


def _merge_shard_cell(
    cfg: ChaosConfig,
    cell: ChaosCell,
    outputs: Sequence[Dict[str, Any]],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Fold one cell's shard outputs into a report cell + SLO records.

    :func:`_fold_slices` plus the fleet-only blocks: the per-shard
    partials; the control block derived from every shard's serving
    window and degraded episodes; the SLO windows derived from the
    fleet's whole completion list under the rules the cell's CI gate
    fields imply.
    """
    from repro.telemetry import default_slo_rules, slo_windows

    outputs = sorted(outputs, key=lambda o: o["partial"]["shard"])
    merged = _fold_slices(cell.name, outputs)
    sim = merged["sim"]
    sim["shards"] = [o["partial"] for o in outputs]
    sim["control"] = control_block({
        o["partial"]["shard"]: (
            o["partial"]["start_ns"], o["partial"]["end_ns"],
            o["episode_list"],
        )
        for o in outputs
    }, ())
    deadline = cell.resilience.deadline_ns
    rules = default_slo_rules(
        min_availability=cell.min_availability,
        p99_ns=deadline if deadline > 0 else 2_000_000.0,
        detection=cell.expect_faults,
    )
    records, sim["slo"] = slo_windows(
        rules, SLO_WINDOW_NS,
        [c for o in outputs for c in o["completions"]],
        max(o["partial"]["end_ns"] for o in outputs),
        detection=sim.get("detection"),
    )
    return merged, records


def _write_jsonl(path: str, records: Sequence[Dict[str, Any]]) -> None:
    import json
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _run_chaos_sharded(cfg: ChaosConfig) -> List[CellResult]:
    """The fleet campaign: every cell partitioned over ``num_shards``.

    Returns one folded result per campaign cell (an errored shard fails
    its whole cell) and writes the trace / SLO / ops artifacts.
    """
    from repro.telemetry import ShardFragment, fleet_trace_doc, slo_instants
    from repro.telemetry.fleet import SLO_TID

    worker_cfg = replace(cfg, progress=None, workers=1)
    tasks = [
        Cell(f"{c.name}/s{k}", (worker_cfg, c, k))
        for c in cfg.cells for k in range(cfg.num_shards)
    ]
    outputs = run_cells(
        _chaos_shard_task, tasks,
        workers=cfg.workers, progress=cfg.progress,
    )
    folded: List[CellResult] = []
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
    for i, cell in enumerate(cfg.cells):
        chunk = outputs[i * cfg.num_shards:(i + 1) * cfg.num_shards]
        errors = [res.error for res in chunk if not res.ok]
        if errors:
            folded.append(CellResult(cell.name, False, error=errors[0]))
            continue
        shard_outputs = [res.value for res in chunk]
        merged, slo_records = _merge_shard_cell(cfg, cell, shard_outputs)
        folded.append(CellResult(cell.name, True, merged))
        slo_cell = [{**r, "cell": cell.name} for r in slo_records]
        slo_stream.extend(slo_cell)
        slo_summaries[cell.name] = merged["sim"]["slo"]
        ops_stream.extend(sorted(
            (snap for o in shard_outputs for snap in o["ops_records"]),
            key=lambda s: (s["window"], s["shard"]),
        ))
        ops_stream.extend(r for r in slo_cell if r["type"] == "slo_alert")
        if cfg.trace_out is not None and cfg.trace_cell == cell.name:
            fragments = [
                ShardFragment(
                    shard=o["partial"]["shard"],
                    completions=o["completions"],
                    spans=o["spans"] or [],
                    events=o["events"] or [],
                )
                for o in shard_outputs
            ]
            doc = fleet_trace_doc(
                fragments, seed=cfg.seed,
                meta={
                    "cell": cell.name, "scheme": cfg.scheme,
                    "levels": cfg.levels, "seed": cfg.seed,
                    "num_shards": cfg.num_shards,
                },
                control=merged["sim"]["control"],
                slo_instants=slo_instants(slo_records, SLO_TID),
            )
            write_trace(doc, cfg.trace_out)
    slo_stream.append({"type": "summary", "cells": slo_summaries})
    ops_stream.append({"type": "summary", "cells": slo_summaries})
    if cfg.slo_out is not None:
        _write_jsonl(cfg.slo_out, slo_stream)
    if cfg.ops_out is not None:
        _write_jsonl(cfg.ops_out, ops_stream)
    return folded


def run_chaos(cfg: Optional[ChaosConfig] = None) -> Dict[str, Any]:
    """Run the chaos campaign and return the report document.

    ``cfg.workers > 1`` fans the independent cells over a spawn pool;
    the ``sim`` blocks are byte-identical to a serial run. A cell whose
    worker raises becomes an ``{"name", "error"}`` entry.

    ``cfg.num_shards > 1`` partitions every cell over a fleet of
    independently seeded shard stacks (one spawn cell per shard), folds
    the shard results through the control plane, derives the SLO
    windows from the fleet's completions, and -- for the traced cell --
    merges every shard's spans into one distributed Perfetto trace.
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
    if cfg.num_shards > 1:
        outputs = _run_chaos_sharded(cfg)
    else:
        worker_cfg = replace(cfg, progress=None, workers=1)
        outputs = run_cells(
            _chaos_cell_task,
            [Cell(c.name, (worker_cfg, c)) for c in cfg.cells],
            workers=cfg.workers,
            progress=cfg.progress,
        )
    return assemble(
        CHAOS, cfg.to_dict(), [{"name": c.name} for c in cfg.cells], outputs,
    )


# -------------------------------------------------------------------- gate

def chaos_check(doc: Dict[str, Any]) -> List[str]:
    """CI gate over one chaos report; returns findings (empty = pass).

    Per cell, from the gate fields its config carries: every injected
    tamper fault (bit flip / replay) must have been detected *while
    serving live load*; availability must not fall below the cell's
    floor; cells expected to inject faults (or enter degraded mode)
    must actually have done so -- a campaign that injected nothing
    proves nothing.
    """
    problems: List[str] = []
    gates = {c["name"]: c for c in doc.get("config", {}).get("cells", [])}
    for cell in doc.get("cells", []):
        name = cell.get("name", "?")
        if "error" in cell:
            problems.append(f"{name}: cell errored, chaos gate unverified")
            continue
        gate = gates.get(name, {})
        sim = cell.get("sim", {})
        avail = sim.get("availability", 0.0)
        floor = gate.get("min_availability", 0.0)
        if avail < floor:
            problems.append(
                f"{name}: availability {avail:.4f} below floor {floor:.4f}"
            )
        det = sim.get("detection")
        if det is not None and det["tamper_detected"] < det["tamper_injected"]:
            problems.append(
                f"{name}: tamper detection gap "
                f"({det['tamper_detected']}/{det['tamper_injected']} detected)"
            )
        if gate.get("expect_faults"):
            injected = sum(
                sim.get("faults", {}).get("injected", {}).get(k, 0)
                for k in FAULT_KINDS
            )
            if injected == 0:
                problems.append(
                    f"{name}: expected fault injection, none fired"
                )
        if gate.get("expect_episodes"):
            if sim.get("episodes", {}).get("count", 0) < 1:
                problems.append(
                    f"{name}: expected degraded-mode episodes, none occurred"
                )
    return problems


__all__ = [
    "ChaosCell",
    "ChaosConfig",
    "TAMPER_KINDS",
    "chaos_check",
    "full_config",
    "run_chaos",
    "smoke_config",
]
