"""Run the serving matrix and build the ``BENCH_serve.json`` report.

Every cell is one (workload, policy) pair served end-to-end on a fresh
stack: build the ORAM + DRAM model, preload the stored keys, generate
the workload, replay it open-loop on the simulated clock. The ``sim``
block of a cell is a pure function of the config, so the report's
deterministic fields are byte-identical across runs, machines and
worker counts; only wall-clock fields vary.

The matrix always pairs the ``batch`` scheduler against the naive
``fifo`` baseline over identical workloads -- the report is the
evidence that dedup/coalescing buys real access savings
(``accesses_per_request``) and tail-latency wins, which
:func:`dedup_check` turns into a CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.executor import Cell, report_progress, run_cells
from repro.report import assemble
from repro.serve.loadgen import WorkloadConfig, generate_requests, initial_items
from repro.serve.replay import serve_slice
from repro.serve.scheduler import POLICIES
from repro.serve.schema import SERVE
from repro.telemetry import request_trace_doc, write_trace


@dataclass
class ServeConfig:
    """One serve-harness invocation (the report's ``config`` block)."""

    scheme: str = "ab"
    levels: int = 10
    seed: int = 0
    max_batch: int = 32
    policies: Sequence[str] = POLICIES
    workloads: Sequence[WorkloadConfig] = ()
    smoke: bool = False
    workers: int = 1
    progress: Any = None   # callable(str) for live cell updates
    #: Write a per-request Perfetto trace of this (workload, policy)
    #: cell to ``trace_out`` (host-independent content).
    trace_out: Optional[str] = None
    trace_cell: Optional[Tuple[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "levels": self.levels,
            "seed": self.seed,
            "max_batch": self.max_batch,
            "policies": list(self.policies),
            "workloads": [w.to_dict() for w in self.workloads],
            "smoke": self.smoke,
        }


#: The smoke workloads: a moderately-loaded Poisson cell (queues stay
#: shallow, dedup is occasional) and an overloaded bursty cell (flash
#: crowds drive deep queues and fat batches -- the dedup showcase).
#: Rates are set against the L10 ab cell's ~360 simulated ns/access.
_SMOKE_WORKLOADS = (
    WorkloadConfig(
        name="zipf-poisson",
        n_requests=900,
        n_keys=100_000,
        stored_keys=700,
        arrival="poisson",
        rate_rps=1_000_000.0,
        zipf_s=0.99,
        read_fraction=0.85,
        value_bytes=80,
        expect_dedup=False,
    ),
    WorkloadConfig(
        name="zipf-bursty",
        n_requests=900,
        n_keys=100_000,
        stored_keys=700,
        arrival="bursty",
        rate_rps=900_000.0,
        burst_factor=6.0,
        zipf_s=1.1,
        read_fraction=0.9,
        value_bytes=80,
        expect_dedup=True,
    ),
)

#: The full matrix folds a million-key universe onto a deeper tree and
#: runs long enough for stable p999 estimates.
_FULL_WORKLOADS = (
    WorkloadConfig(
        name="zipf-poisson",
        n_requests=8000,
        n_keys=2_000_000,
        stored_keys=3000,
        arrival="poisson",
        rate_rps=800_000.0,
        zipf_s=0.99,
        read_fraction=0.85,
        value_bytes=80,
        expect_dedup=False,
    ),
    WorkloadConfig(
        name="zipf-bursty",
        n_requests=8000,
        n_keys=2_000_000,
        stored_keys=3000,
        arrival="bursty",
        rate_rps=700_000.0,
        burst_factor=6.0,
        zipf_s=1.1,
        read_fraction=0.9,
        value_bytes=80,
        expect_dedup=True,
    ),
    WorkloadConfig(
        name="zipf-mixed",
        n_requests=8000,
        n_keys=2_000_000,
        stored_keys=3000,
        arrival="bursty",
        rate_rps=700_000.0,
        burst_factor=4.0,
        zipf_s=1.2,
        read_fraction=0.8,
        delete_fraction=0.02,
        value_bytes=110,
        expect_dedup=True,
    ),
)


def smoke_config(**overrides: Any) -> ServeConfig:
    """Seconds-scale matrix for CI."""
    base = ServeConfig(workloads=_SMOKE_WORKLOADS, smoke=True)
    return replace(base, **overrides)


def full_config(**overrides: Any) -> ServeConfig:
    """The nightly matrix: deeper tree, million-key universe."""
    base = ServeConfig(levels=12, workloads=_FULL_WORKLOADS, smoke=False)
    return replace(base, **overrides)


# ----------------------------------------------------------------- helpers

def _percentiles(values: Sequence[float]) -> Dict[str, float]:
    if not len(values):
        return {"p50": 0.0, "p99": 0.0, "p999": 0.0, "mean": 0.0, "max": 0.0}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "p999": float(np.percentile(arr, 99.9)),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


def _serve_cell_task(
    payload: Tuple[ServeConfig, WorkloadConfig, str]
) -> Dict[str, Any]:
    """One matrix cell, runnable in-process or in a spawn worker."""
    cfg, workload, policy = payload
    report_progress(f"serving {workload.name}/{policy} ...")
    want_trace = (
        cfg.trace_out is not None
        and cfg.trace_cell == (workload.name, policy)
    )
    telemetry = None
    if want_trace:
        from repro.telemetry import Telemetry
        telemetry = Telemetry(meta={
            "workload": workload.name, "policy": policy,
            "scheme": cfg.scheme, "levels": cfg.levels, "seed": cfg.seed,
        })
    served = serve_slice(
        initial_items(workload), generate_requests(workload),
        scheme=cfg.scheme, levels=cfg.levels, seed=cfg.seed,
        policy=policy, max_batch=cfg.max_batch, telemetry=telemetry,
    )
    result, counters = served.result, served.counters
    comps = result.completions
    sim_s = result.sim_ns / 1e9
    sim: Dict[str, Any] = {
        **{k: counters[k] for k in (
            "requests", "accesses_issued", "dedup_hits", "coalesced_puts",
            "absent_gets", "ops", "batch_size_hist", "sim_ns",
        )},
        "accesses_per_request": (
            counters["accesses_issued"] / counters["requests"]
            if counters["requests"] else 0.0
        ),
        "requests_per_s_sim": len(comps) / sim_s if sim_s > 0 else 0.0,
        "latency_ns": _percentiles([c.latency_ns for c in comps]),
        "queue_ns": _percentiles([c.queue_ns for c in comps]),
        "service_ns": _percentiles([c.service_ns for c in comps]),
    }
    if "security" in counters:
        sim["security"] = counters["security"]
    if want_trace:
        doc = request_trace_doc(
            comps, telemetry.spans, meta=telemetry.meta,
        )
        write_trace(doc, cfg.trace_out)
    wall_lat_us = _percentiles([c.wall_s * 1e6 for c in comps])
    wall_lat_us.pop("mean", None)
    wall_lat_us.pop("max", None)
    return {
        "workload": workload.name,
        "policy": policy,
        "wall_s": result.wall_s,
        "requests_per_s_wall": (
            len(comps) / result.wall_s if result.wall_s > 0 else 0.0
        ),
        "wall_latency_us": wall_lat_us,
        "sim": sim,
    }


# ------------------------------------------------------------------ runner

def run_serve(cfg: Optional[ServeConfig] = None) -> Dict[str, Any]:
    """Run the (workload x policy) matrix and return the report doc.

    ``cfg.workers > 1`` fans the independent cells over a spawn pool;
    the ``sim`` blocks are byte-identical to a serial run. A cell whose
    worker raises becomes an ``{"workload", "policy", "error"}`` entry.
    """
    cfg = cfg or full_config()
    if not cfg.workloads:
        raise ValueError("config has no workloads")
    if cfg.trace_out is not None and cfg.trace_cell is None:
        # Default to the most interesting cell: the first workload that
        # expects dedup (deep queues), under the batch policy.
        interesting = next(
            (w for w in cfg.workloads if w.expect_dedup), cfg.workloads[0]
        )
        policy = "batch" if "batch" in cfg.policies else cfg.policies[0]
        cfg = replace(cfg, trace_cell=(interesting.name, policy))
    worker_cfg = replace(cfg, progress=None, workers=1)
    pairs = [(w, p) for w in cfg.workloads for p in cfg.policies]
    outputs = run_cells(
        _serve_cell_task,
        [Cell(f"{w.name}/{p}", (worker_cfg, w, p)) for w, p in pairs],
        workers=cfg.workers,
        progress=cfg.progress,
    )
    return assemble(
        SERVE, cfg.to_dict(),
        [{"workload": w.name, "policy": p} for w, p in pairs], outputs,
    )


# ------------------------------------------------------------- dedup gate

def dedup_check(doc: Dict[str, Any]) -> List[str]:
    """CI gate: the batch policy must beat naive FIFO where expected.

    For every workload present under both policies: batch must never
    issue *more* accesses than FIFO, and on workloads flagged
    ``expect_dedup`` it must issue strictly fewer with at least one
    dedup hit. Returns findings (empty = pass).
    """
    problems: List[str] = []
    expect = {
        w["name"]: w.get("expect_dedup", False)
        for w in doc.get("config", {}).get("workloads", [])
    }
    by_key = {
        (c.get("workload"), c.get("policy")): c
        for c in doc.get("cells", [])
    }
    for name in expect:
        fifo = by_key.get((name, "fifo"))
        batch = by_key.get((name, "batch"))
        if fifo is None or batch is None:
            continue
        if "error" in fifo or "error" in batch:
            problems.append(f"{name}: cell errored, dedup win unverified")
            continue
        fa = fifo["sim"]["accesses_issued"]
        ba = batch["sim"]["accesses_issued"]
        if ba > fa:
            problems.append(
                f"{name}: batch issued more accesses than fifo ({ba} > {fa})"
            )
        if expect[name]:
            if ba >= fa:
                problems.append(
                    f"{name}: expected strict dedup win, got "
                    f"batch={ba} fifo={fa}"
                )
            if batch["sim"]["dedup_hits"] < 1:
                problems.append(f"{name}: batch policy recorded no dedup hits")
    return problems


__all__ = [
    "ServeConfig",
    "dedup_check",
    "full_config",
    "run_serve",
    "smoke_config",
]
