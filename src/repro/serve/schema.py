"""The ``BENCH_serve.json`` / ``BENCH_chaos.json`` / ``BENCH_scaling.json``
report formats.

Three :class:`repro.report.ReportSpec` tables run by the shared report
kernel, no third-party schema libraries (same rule as
:mod:`repro.perf.schema`). The serve document::

    {
      "kind": "repro-serve-report",
      "schema_version": 1,
      "config":      { scheme/levels/seed/policies/max_batch,
                       "workloads": [ workload dicts ], "smoke": bool },
      "environment": { "python": ..., "numpy": ..., "platform": ... },
      "cells":       [ { cell }, ... ]
    }

One cell per (workload, policy) pair::

    {
      "workload": "zipf-bursty", "policy": "batch",
      "sim": {                        # deterministic for a code version
        "requests": ..., "accesses_issued": ..., "dedup_hits": ...,
        "coalesced_puts": ..., "absent_gets": ...,
        "accesses_per_request": ...,
        "ops": {"get": ..., "put": ..., "delete": ...},
        "batch_size_hist": [[size, count], ...],
        "sim_ns": ..., "requests_per_s_sim": ...,
        "latency_ns": {"p50","p99","p999","mean","max"},
        "queue_ns":   { same },
        "service_ns": { same },
        "security": {"guesses","success_rate","expected_rate","advantage"}
      }
    }

The ``sim`` block is a pure function of the config (seeded workload
generation, seeded ORAM, event-based DRAM timing), so CI asserts it is
byte-identical across runs and worker counts; ``environment`` is the
only host-dependent block, and the deterministic view strips it for
the identity check.

Error cells mirror the perf schema::

    { "workload": "...", "policy": "...", "error": "<traceback>" }

The compare gate runs on the *simulated* metrics -- deterministic for a
code version, so any delta is a real behavioural change, not runner
noise: simulated throughput dropping, or simulated p99 rising, by more
than ``DEFAULT_THRESHOLD_PCT`` (10) percent is a regression; other deterministic drift
(dedup hits, access counts) is reported but never gates -- scheduler
changes legitimately move it and must be reviewed, not blocked. CI
runs the smoke compare with ``--warn-only`` so a reviewed improvement
can land alongside its baseline refresh.

Chaos cells (:mod:`repro.serve.chaos`) key by ``name`` and gate on what
clients saw: availability dropping more than ``DEFAULT_AVAILABILITY_DROP_PP``
points, served p99 rising more than ``DEFAULT_THRESHOLD_PCT`` percent, or tamper
detection falling below a baseline that had it perfect. Beyond field
shapes their accounting must close: every generated request completed
with exactly one terminal status. Sharded campaigns add the per-shard,
control-plane and SLO blocks.

Scaling cells (:mod:`repro.serve.scaling`) key by ``name@s<shards>`` and
gate on the fleet: aggregate ns-per-request rising, availability
dropping, a fleet that was all-healthy no longer ending so, or the
analytic per-shard memory growing (a capacity regression is as real as
a throughput one). The per-shard detail must cover exactly ``shards``
entries and ``fleet_bytes`` must equal shards times per-shard bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.report import (
    FRACTION, NUM, PERCENTILES, Gate, ReportSpec,
)

#: Terminal statuses: every ``status`` block carries all four counts.
_STATUS = {"ok": int, "timed_out": int, "shed": int, "failed": int}
_KIND_COUNTS = {
    "bit_flip": int, "replay": int, "dropped_write": int, "unavailable": int,
}

#: The blocks only a fault-armed (sealed, resilient) slice emits.
_DETECTION = {"tamper_injected": int, "tamper_detected": int, "rate": FRACTION}
_FAULTS = {
    "injected": _KIND_COUNTS, "detected": _KIND_COUNTS,
    "undetected": _KIND_COUNTS,
}
_EPISODES = {"count": int, "recover_ns_mean": NUM, "recover_ns_max": NUM}
_SECURITY = {
    "guesses": int, "success_rate": NUM, "expected_rate": NUM,
    "advantage": NUM,
}
_CONTROL = {"all_healthy": bool, "shards": list}

SERVE = ReportSpec(
    kind="repro-serve-report",
    config={
        "scheme": str,
        "levels": int,
        "seed": int,
        "max_batch": int,
        "policies": list,
        "workloads": list,
        "smoke": bool,
    },
    cell={
        "workload": str,
        "policy": str,
        "sim": {
            "requests": int,
            "accesses_issued": int,
            "dedup_hits": int,
            "coalesced_puts": int,
            "absent_gets": int,
            "accesses_per_request": NUM,
            "ops": dict,
            "batch_size_hist": list,
            "sim_ns": NUM,
            "requests_per_s_sim": NUM,
            "latency_ns": PERCENTILES,
            "queue_ns": PERCENTILES,
            "service_ns": PERCENTILES,
            "security?": _SECURITY,
        },
    },
    key="{workload}/{policy}",
    gates=(
        Gate("sim.requests_per_s_sim", "higher", "pct",
             show="{old:.0f} -> {new:.0f} req/s sim ({delta:+.1f}%)",
             fail=" -- throughput drop exceeds -{limit:g}%", positive=True),
        Gate("sim.latency_ns.p99", "lower", "pct",
             show="p99 {old:.0f} -> {new:.0f} ns ({delta:+.1f}%)",
             fail=" -- p99 latency rise exceeds +{limit:g}%", positive=True),
    ),
    drift=("sim.accesses_issued", "sim.dedup_hits", "sim.coalesced_puts",
           "sim.absent_gets", "sim.requests"),
    title=("serve matrix ({flavor}): {scheme} L={levels} "
           "max_batch={max_batch} seed={seed}"),
    summary=(
        ("req_per_s_sim", "sim.requests_per_s_sim"),
        ("acc_per_req", "sim.accesses_per_request"),
        ("dedup", "sim.dedup_hits"),
        ("coalesced", "sim.coalesced_puts"),
        ("p50_us", "sim.latency_ns.p50", 1000.0),
        ("p99_us", "sim.latency_ns.p99", 1000.0),
        ("p999_us", "sim.latency_ns.p999", 1000.0),
    ),
)


def _accounting_closes(cell: Dict[str, Any], where: str, errors: List[str]) -> None:
    sim = cell["sim"]
    if sim["completions"] != sim["requests"]:
        errors.append(
            f"{where}.sim: {sim['completions']} completions for "
            f"{sim['requests']} requests"
        )
    total = sum(v for v in sim["status"].values() if isinstance(v, int))
    if total != sim["completions"]:
        errors.append(
            f"{where}.sim.status: counts sum to {total}, "
            f"expected {sim['completions']}"
        )


CHAOS = ReportSpec(
    kind="repro-chaos-report",
    config={
        "scheme": str,
        "levels": int,
        "seed": int,
        "max_batch": int,
        "robustness": dict,
        "cells": list,
        "smoke": bool,
    },
    cell={
        "name": str,
        "sim": {
            "requests": int,
            "completions": int,
            "status": _STATUS,
            "availability": FRACTION,
            "accesses_issued": int,
            "dedup_hits": int,
            "coalesced_puts": int,
            "absent_gets": int,
            "scheduler_timeouts": int,
            "degraded_reads": int,
            "journal": dict,
            "retries": int,
            "episodes": _EPISODES,
            "sim_ns": NUM,
            "requests_per_s_sim": NUM,
            "latency_ns": PERCENTILES,
            "robust": dict,
            "faults?": _FAULTS,
            "detection?": _DETECTION,
            "security?": _SECURITY,
            # Sharded campaigns only (``config.num_shards > 1``).
            "shards?": [{"shard": int, "requests": int, "status": _STATUS}],
            "control?": _CONTROL,
            "slo?": {"alerts": int, "availability": FRACTION, "rules": list},
        },
    },
    key="{name}",
    checks=(_accounting_closes,),
    gates=(
        Gate("sim.availability", "higher", "pp",
             show="availability {old:.4f} -> {new:.4f} ({delta:+.2f}pp)",
             fail=" -- availability drop exceeds -{limit:g}pp"),
        Gate("sim.latency_ns.p99", "lower", "pct",
             show="served p99 {old:.0f} -> {new:.0f} ns",
             fail=" -- p99-under-fault rise exceeds +{limit:g}%"),
        Gate("sim.detection.rate", "higher", "flag",
             fail="tamper detection fell from 100% to {pct:.1f}%"),
    ),
    drift=("sim.accesses_issued", "sim.degraded_reads", "sim.retries",
           "sim.scheduler_timeouts"),
    noun="campaign",
    title=("chaos campaign ({flavor}): {scheme} L={levels} "
           "max_batch={max_batch} seed={seed}"),
    summary=(
        ("avail", "sim.availability"),
        ("p99_us", "sim.latency_ns.p99", 1000.0),
        ("shed", "sim.status.shed"),
        ("timeout", lambda cell: (cell["sim"]["status"]["timed_out"]
                                  + cell["sim"]["scheduler_timeouts"])),
        ("failed", "sim.status.failed"),
        ("degr_reads", "sim.degraded_reads"),
        ("episodes", "sim.episodes.count"),
        ("recover_us", "sim.episodes.recover_ns_max", 1000.0),
        ("detect", lambda cell: (
            "{tamper_detected}/{tamper_injected}".format(
                **cell["sim"]["detection"]
            ) if "detection" in cell["sim"] else "-"
        )),
    ),
)


def _fleet_adds_up(cell: Dict[str, Any], where: str, errors: List[str]) -> None:
    memory = cell["memory"]
    if memory["fleet_bytes"] != memory["per_shard_bytes"] * cell["shards"]:
        errors.append(
            f"{where}.memory: fleet_bytes is not shards * per_shard_bytes"
        )
    if len(cell["sim"]["shards"]) != cell["shards"]:
        errors.append(
            f"{where}.sim.shards: {len(cell['sim']['shards'])} entries for "
            f"{cell['shards']} shards"
        )


SCALING = ReportSpec(
    kind="repro-scaling-report",
    config={
        "scheme": str,
        "measured_levels": int,
        "seed": int,
        "max_batch": int,
        "policy": str,
        "min_speedup": NUM,
        "heartbeat_ns": NUM,
        "cells": list,
        "smoke": bool,
    },
    cell={
        "name": str,
        "shards": int,
        "total_blocks": int,
        "drill": bool,
        "memory": {
            "per_shard_capacity": int,
            "shard_levels": int,
            "per_shard_bytes": int,
            "fleet_bytes": int,
            "single_tree_levels": int,
            "single_tree_bytes": int,
        },
        "sim": {
            "fleet": {
                "requests": int,
                "completions": int,
                "status": dict,
                "availability": FRACTION,
                "makespan_ns": NUM,
                "ns_per_request": NUM,
                "requests_per_s_sim": NUM,
                "latency_ns": PERCENTILES,
            },
            # Per-shard detail; a drilled shard adds the fault-armed
            # blocks the scaling gate reads.
            "shards": [{
                "shard": int,
                "sim?": {
                    "episodes?": _EPISODES,
                    "faults?": _FAULTS,
                    "detection?": _DETECTION,
                },
            }],
            "control": _CONTROL,
        },
    },
    key="{name}@s{shards}",
    checks=(_fleet_adds_up,),
    gates=(
        Gate("sim.fleet.ns_per_request", "lower", "pct",
             show="{old:.1f} -> {new:.1f} ns/req aggregate ({delta:+.1f}%)",
             fail=" -- aggregate ns/req rise exceeds +{limit:g}%",
             positive=True),
        Gate("sim.fleet.availability", "higher", "pp",
             show="availability {old:.4f} -> {new:.4f} ({delta:+.2f}pp)",
             fail=" -- availability drop exceeds -{limit:g}pp"),
        Gate("sim.control.all_healthy", "higher", "flag",
             fail="fleet no longer ends all-healthy"),
        Gate("memory.per_shard_bytes", "lower", "abs",
             fail="per-shard memory grew {old} -> {new} bytes"),
    ),
    drift=("sim.fleet.requests", "sim.fleet.completions",
           "memory.per_shard_bytes"),
    noun="curve",
    title=("capacity curve ({flavor}): {scheme} measured "
           "L={measured_levels} max_batch={max_batch} seed={seed}"),
    summary=(
        ("blocks", "total_blocks"),
        ("ns_per_req", "sim.fleet.ns_per_request"),
        ("req_per_s_sim", "sim.fleet.requests_per_s_sim"),
        ("avail", "sim.fleet.availability"),
        ("p99_us", "sim.fleet.latency_ns.p99", 1000.0),
        ("shard_MiB", "memory.per_shard_bytes", 2 ** 20),
        ("fleet_MiB", "memory.fleet_bytes", 2 ** 20),
        ("healthy", "sim.control.all_healthy"),
        ("drill", "drill"),
    ),
)

validate_report = SERVE.validate
validate_chaos_report = CHAOS.validate
validate_scaling_report = SCALING.validate
cell_key = SERVE.cell_key
chaos_cell_key = CHAOS.cell_key
scaling_cell_key = SCALING.cell_key
render_report = SERVE.render
render_chaos_report = CHAOS.render
render_scaling_report = SCALING.render
