"""The capacity curve: fleet throughput and memory vs shard count.

``BENCH_scaling.json`` answers the horizontal-scale question the
serving harness cannot: how does served throughput grow, and per-shard
memory shrink, as one workload spreads over 1..16 AB-ORAM shards?
Every cell is one fleet run (:func:`repro.serve.fleet.run_fleet`)
of the *same* workload at a given ``(total_blocks, shards)`` point:

- **Throughput** is measured: the fleet's simulated-DRAM makespan for
  the workload (slowest shard's serving window) and the aggregate
  DRAM-ns per request derived from it. The smoke gate asserts
  ``ns_per_request`` at shards=1 over shards=4 clears
  ``config.min_speedup`` (>= 3x; perfect scaling would be ~4x, the gap
  is the PRF-balanced hot shard).
- **Memory** is analytic: each shard needs the smallest tree that
  holds its slice of the block universe --
  ``ceil(total_blocks / shards)`` plus a 5% PRF-imbalance margin --
  so the ``memory`` block reports per-shard tree depth/bytes and the
  fleet total next to the single-tree depth/bytes the same universe
  would need unsharded. Tree geometry is closed-form
  (:attr:`~repro.oram.config.OramConfig.tree_bytes`), so the 2^24
  point costs no 16M-block simulation.

Measured serving runs at ``config.measured_levels`` for *every* shard
count of a row (same per-access cost everywhere, so the throughput
ratio isolates the fleet effect), mirroring the repo's standing
pattern of timing at reduced depth while the space math runs at true
depth. Workloads drive arrivals at a rate far above any shard's
service rate, so cells are service-bound and the makespan measures
capacity, not arrival spacing.

One row carries a :class:`~repro.serve.fleet.KillShardDrill`:
the kill-a-shard-under-load cell, whose gates (availability floor,
degraded episodes happened, tamper detection 100%, control plane back
to all-healthy) ride in the config like the chaos campaign's do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import schemes as schemes_mod
from repro.core.sharding.sharded import levels_for_blocks
from repro.parallel.executor import Cell, report_progress, run_cells
from repro.report import assemble
from repro.serve.chaos import TAMPER_FAULTS, TAMPER_RESILIENCE
from repro.serve.fleet import FleetConfig, KillShardDrill, run_fleet
from repro.serve.loadgen import WorkloadConfig
from repro.serve.schema import SCALING

#: Extra per-shard capacity provisioned over the even split, absorbing
#: the PRF's occupancy imbalance (a 5% margin covers the multinomial
#: spread at every (blocks, shards) point the matrix visits).
IMBALANCE_MARGIN = 1.05


@dataclass(frozen=True)
class ScalingCell:
    """One capacity point: a workload at (total_blocks, shards)."""

    name: str
    total_blocks: int
    shards: int
    workload: WorkloadConfig
    drill: Optional[KillShardDrill] = None

    def __post_init__(self) -> None:
        if self.total_blocks < 1:
            raise ValueError("total_blocks must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "total_blocks": self.total_blocks,
            "shards": self.shards,
            "workload": self.workload.to_dict(),
            "drill": None if self.drill is None else self.drill.to_dict(),
        }


@dataclass
class ScalingConfig:
    """One capacity-curve invocation (the report's ``config`` block)."""

    scheme: str = "ab"
    #: Tree depth every measured shard serves at (uniform across shard
    #: counts so the throughput ratio isolates the fleet effect).
    measured_levels: int = 9
    seed: int = 0
    max_batch: int = 32
    policy: str = "batch"
    #: The s1-over-s4 ns-per-request gate :func:`scaling_check` applies
    #: to every block row that carries both shard counts.
    min_speedup: float = 3.0
    heartbeat_ns: float = 100_000.0
    miss_after: int = 3
    cells: Sequence[ScalingCell] = ()
    smoke: bool = False
    workers: int = 1
    progress: Any = None   # callable(str) for live shard updates

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "measured_levels": self.measured_levels,
            "seed": self.seed,
            "max_batch": self.max_batch,
            "policy": self.policy,
            "min_speedup": self.min_speedup,
            "heartbeat_ns": self.heartbeat_ns,
            "miss_after": self.miss_after,
            "cells": [c.to_dict() for c in self.cells],
            "smoke": self.smoke,
        }


# ------------------------------------------------------------------- matrix

def _capacity_workload(
    name: str, n_requests: int, stored_keys: int
) -> WorkloadConfig:
    """A service-bound capacity workload.

    The arrival rate is set orders of magnitude above any shard's
    service rate, so effectively the whole workload is queued at t=0
    and the serving window measures pure capacity. Moderate zipf skew
    keeps the hot shard's share near the even split -- the curve
    measures fleet scaling, not one pathological key.
    """
    return WorkloadConfig(
        name=name,
        n_requests=n_requests,
        n_keys=100_000,
        stored_keys=stored_keys,
        arrival="poisson",
        rate_rps=1e8,
        zipf_s=0.7,
        read_fraction=0.85,
        value_bytes=48,
        expect_dedup=False,
    )


def _drill(shard: int, min_availability: float = 0.90) -> KillShardDrill:
    """The standard kill-a-shard drill: the chaos campaign's ``tamper``
    cell (plan and policy) under one shard."""
    return KillShardDrill(
        shard=shard, faults=TAMPER_FAULTS, resilience=TAMPER_RESILIENCE,
        min_availability=min_availability,
    )


def smoke_config(**overrides: Any) -> ScalingConfig:
    """Seconds-scale curve for CI: one 2^16-block row plus the drill."""
    wl = _capacity_workload("cap-64k", n_requests=600, stored_keys=500)
    blocks = 2 ** 16
    cells = tuple(
        ScalingCell(
            name="cap-64k", total_blocks=blocks, shards=s, workload=wl,
        )
        for s in (1, 2, 4)
    ) + (
        ScalingCell(
            name="drill-64k", total_blocks=blocks, shards=4, workload=wl,
            drill=_drill(shard=0),
        ),
    )
    base = ScalingConfig(cells=cells, smoke=True)
    return replace(base, **overrides)


def full_config(**overrides: Any) -> ScalingConfig:
    """The nightly curve: blocks 2^16 -> 2^24, shards 1 -> 16."""
    rows = (
        ("cap-64k", 2 ** 16, (1, 4)),
        ("cap-1m", 2 ** 20, (1, 4, 8)),
        ("cap-16m", 2 ** 24, (1, 4, 8, 16)),
    )
    cells: List[ScalingCell] = []
    for name, blocks, shard_counts in rows:
        wl = _capacity_workload(name, n_requests=2000, stored_keys=1000)
        cells.extend(
            ScalingCell(
                name=name, total_blocks=blocks, shards=s, workload=wl,
            )
            for s in shard_counts
        )
    # The fleet soak: kill one of eight shards under the 2^20 row.
    cells.append(ScalingCell(
        name="drill-1m", total_blocks=2 ** 20, shards=8,
        workload=_capacity_workload("drill-1m", 2000, 1000),
        drill=_drill(shard=0),
    ))
    base = ScalingConfig(
        measured_levels=10, cells=tuple(cells), smoke=False,
    )
    return replace(base, **overrides)


# ------------------------------------------------------------------- runner

def memory_block(
    scheme: str, total_blocks: int, shards: int
) -> Dict[str, int]:
    """Analytic per-shard and fleet memory at true capacity depth."""
    if shards == 1:
        target = total_blocks
    else:
        target = int(-(-(total_blocks * IMBALANCE_MARGIN) // shards))
    shard_levels = levels_for_blocks(scheme, target)
    per_shard = schemes_mod.by_name(scheme, shard_levels).tree_bytes
    single_levels = levels_for_blocks(scheme, total_blocks)
    single = schemes_mod.by_name(scheme, single_levels).tree_bytes
    return {
        "per_shard_capacity": target,
        "shard_levels": shard_levels,
        "per_shard_bytes": int(per_shard),
        "fleet_bytes": int(per_shard) * shards,
        "single_tree_levels": single_levels,
        "single_tree_bytes": int(single),
    }


def _scaling_cell_task(
    payload: Tuple[ScalingConfig, ScalingCell]
) -> Dict[str, Any]:
    """One capacity point: a whole fleet run (fans out inside)."""
    cfg, cell = payload
    report_progress(f"scaling {cell.name}@s{cell.shards} ...")
    fleet_cfg = FleetConfig(
        workload=cell.workload,
        scheme=cfg.scheme,
        levels=cfg.measured_levels,
        num_shards=cell.shards,
        seed=cfg.seed,
        max_batch=cfg.max_batch,
        policy=cfg.policy,
        drill=cell.drill,
        heartbeat_ns=cfg.heartbeat_ns,
        miss_after=cfg.miss_after,
        workers=cfg.workers,
        progress=cfg.progress,
    )
    wall0 = time.perf_counter()
    doc = run_fleet(fleet_cfg)
    wall_s = time.perf_counter() - wall0
    if "error" in doc:
        failed = [s for s in doc["shards"] if "error" in s]
        raise RuntimeError(
            f"{len(failed)} shard(s) failed:\n"
            + "\n".join(s["error"] for s in failed)
        )
    return {
        "name": cell.name,
        "shards": cell.shards,
        "total_blocks": cell.total_blocks,
        "drill": cell.drill is not None,
        "wall_s": wall_s,
        "memory": memory_block(cfg.scheme, cell.total_blocks, cell.shards),
        "sim": {
            "fleet": doc["fleet"],
            "shards": doc["shards"],
            "control": doc["control"],
        },
    }


def run_scaling(cfg: Optional[ScalingConfig] = None) -> Dict[str, Any]:
    """Run the capacity matrix and return the report document.

    Cells run serially in the parent; ``cfg.workers > 1`` parallelizes
    *within* each fleet (one spawn worker per shard), which is the
    configuration the serial==workers determinism gate compares. A cell
    whose fleet raises becomes an ``{"name", "shards", "error"}``
    entry.
    """
    cfg = cfg or smoke_config()
    if not cfg.cells:
        raise ValueError("config has no cells")
    identities = [{"name": c.name, "shards": c.shards} for c in cfg.cells]
    outputs = run_cells(
        _scaling_cell_task,
        [Cell(SCALING.cell_key(ident), (cfg, cell))
         for ident, cell in zip(identities, cfg.cells)],
        progress=cfg.progress,
    )
    return assemble(SCALING, cfg.to_dict(), identities, outputs)


# --------------------------------------------------------------------- gate

def scaling_check(
    doc: Dict[str, Any], min_speedup: Optional[float] = None
) -> List[str]:
    """CI gate over one scaling report; returns findings (empty = pass).

    - every block row carrying shards=1 and shards=4 must show
      ``ns_per_request(s1) / ns_per_request(s4) >= min_speedup``
      (argument overrides ``config.min_speedup``);
    - fleets without a drill must serve everything (availability 1.0);
    - drill cells must stay above their availability floor, record at
      least one degraded episode on the drilled shard, detect every
      injected tamper fault, and end with the control plane
      all-healthy;
    - every fleet (drilled or not) must end all-healthy.
    """
    problems: List[str] = []
    config = doc.get("config", {})
    floor = (
        min_speedup if min_speedup is not None
        else config.get("min_speedup", 0.0)
    )
    gates = {
        (c["name"], c["shards"]): c for c in config.get("cells", [])
    }
    rows: Dict[int, Dict[int, float]] = {}
    for cell in doc.get("cells", []):
        label = f"{cell.get('name', '?')}@s{cell.get('shards', '?')}"
        if "error" in cell:
            problems.append(f"{label}: cell errored, scaling gate unverified")
            continue
        sim = cell.get("sim", {})
        fleet = sim.get("fleet", {})
        control = sim.get("control", {})
        if not control.get("all_healthy", False):
            problems.append(f"{label}: fleet did not end all-healthy")
        gate = gates.get((cell.get("name"), cell.get("shards")), {})
        drill = gate.get("drill")
        if not cell.get("drill", False):
            rows.setdefault(cell["total_blocks"], {})[cell["shards"]] = (
                fleet.get("ns_per_request", 0.0)
            )
            if fleet.get("availability", 0.0) < 1.0:
                problems.append(
                    f"{label}: faultless fleet availability "
                    f"{fleet.get('availability', 0.0):.4f} < 1.0"
                )
            continue
        avail = fleet.get("availability", 0.0)
        avail_floor = (drill or {}).get("min_availability", 0.0)
        if avail < avail_floor:
            problems.append(
                f"{label}: availability {avail:.4f} below drill floor "
                f"{avail_floor:.4f}"
            )
        drilled_shard = (drill or {}).get("shard", 0)
        shard_cells = {
            s.get("shard"): s for s in sim.get("shards", [])
            if "error" not in s
        }
        drilled = shard_cells.get(drilled_shard, {}).get("sim", {})
        if drilled.get("episodes", {}).get("count", 0) < 1:
            problems.append(
                f"{label}: drilled shard {drilled_shard} recorded no "
                f"degraded episodes"
            )
        det = drilled.get("detection")
        if det is None:
            problems.append(
                f"{label}: drilled shard {drilled_shard} has no detection "
                f"block"
            )
        elif det["tamper_detected"] < det["tamper_injected"]:
            problems.append(
                f"{label}: tamper detection gap "
                f"({det['tamper_detected']}/{det['tamper_injected']})"
            )
    for blocks, by_shards in sorted(rows.items()):
        if 1 not in by_shards or 4 not in by_shards:
            continue
        s1, s4 = by_shards[1], by_shards[4]
        if s4 <= 0:
            problems.append(
                f"blocks={blocks}: shards=4 ns_per_request is {s4}"
            )
            continue
        speedup = s1 / s4
        if speedup < floor:
            problems.append(
                f"blocks={blocks}: shards=4 speedup {speedup:.2f}x below "
                f"the {floor:.2f}x gate (s1 {s1:.1f} ns/req, "
                f"s4 {s4:.1f} ns/req)"
            )
    return problems


__all__ = [
    "IMBALANCE_MARGIN",
    "ScalingCell",
    "ScalingConfig",
    "full_config",
    "memory_block",
    "run_scaling",
    "scaling_check",
    "smoke_config",
]
