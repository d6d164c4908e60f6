"""Open-loop replay: drive a generated workload on the DRAM-ns clock.

The serving loop itself is
:func:`repro.serve.resilience.resilient_replay` -- a discrete-event
loop over the simulated clock (:attr:`DramSink.now`) in which requests
*arrive* at their generated timestamps whether or not the server is
ready (open loop) and service advances the clock through the
event-based DRAM model. :func:`replay` is that loop under its null
policy. Everything it records is deterministic in (workload seed,
stack seed) -- the latency percentiles in ``BENCH_serve.json`` are
exact, not sampled.

:func:`serve_slice` is the one recipe every served report cell is cut
from: :func:`repro.serve.fleet._fleet_shard_task` calls it for every
shard -- a ``serve bench`` cell's one shard, every chaos and scaling
shard. It builds a stack, populates it, serves a request slice through
the loop, and counts what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import TAMPER_KINDS
from repro.serve.request import OK, STATUSES, Request
from repro.serve.resilience import (
    ReplayResult, ResilienceConfig, resilient_replay,
)
from repro.serve.scheduler import MAX_BATCH, BatchScheduler
from repro.serve.stack import ServedStack, attacker_block, build_stack


def replay(
    stack: ServedStack,
    requests: Sequence[Request],
    scheduler: BatchScheduler,
    max_batch: int = MAX_BATCH,
) -> ReplayResult:
    """Serve ``requests`` (arrival-ordered) through ``scheduler``.

    The serving loop under its null policy: no deadline, no queue
    bound, and -- on an unsealed stack, which cannot raise a
    quarantine -- no degraded mode.
    """
    return resilient_replay(
        stack, requests, scheduler, ResilienceConfig(), max_batch=max_batch,
    )


# ------------------------------------------------------------ served slice

def episode_block(episodes: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Summary of a run's degraded episodes (count, time-to-recover)."""
    spans = [e["exit_ns"] - e["enter_ns"] for e in episodes]
    return {
        "count": len(episodes),
        "recover_ns_mean": sum(spans) / len(spans) if spans else 0.0,
        "recover_ns_max": max(spans) if spans else 0.0,
        "rebuilt": sum(e["rebuilt"] for e in episodes),
        "journal_replayed": sum(e["journal_replayed"] for e in episodes),
    }


def percentiles(values: Sequence[float]) -> Dict[str, float]:
    """p50 / p99 / p99.9 / mean / max of a sample (all 0 when empty)."""
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


def detection_block(summary: Dict[str, Any]) -> Dict[str, Any]:
    """Tamper-detection tally of a ``FaultyMemory.summary()`` block."""
    injected = sum(summary["injected"][k] for k in TAMPER_KINDS)
    detected = sum(summary["detected"][k] for k in TAMPER_KINDS)
    return {
        "tamper_injected": injected,
        "tamper_detected": detected,
        "rate": detected / injected if injected else 1.0,
    }


@dataclass
class ServedSlice:
    """One served request slice: the replay result plus its counters.

    ``counters`` holds every deterministic value a report block is cut
    from: ``requests / completions / status / availability /
    accesses_issued / dedup_hits / coalesced_puts / absent_gets /
    scheduler_timeouts / ops / batch_size_hist / sim_ns`` always, and
    -- when a resilience policy was passed -- ``degraded_reads /
    journal / retries / episodes / robust`` plus ``faults`` and
    ``detection`` if a fault plan was armed; ``security`` when the
    guessing observer saw accesses. Callers pick the keys their report
    format carries.
    """

    result: ReplayResult
    counters: Dict[str, Any]
    sampler: Optional[Any] = None

    @property
    def served_latencies(self) -> List[float]:
        """End-to-end latency of every answered (``ok``) request."""
        return [
            c.latency_ns for c in self.result.completions if c.status == OK
        ]


def serve_slice(
    items: Sequence[Tuple[bytes, bytes]],
    requests: Sequence[Request],
    *,
    scheme: str,
    levels: int,
    seed: int,
    policy: str = "batch",
    max_batch: int = MAX_BATCH,
    robustness: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
    resilience: Optional[ResilienceConfig] = None,
    telemetry: Optional[Any] = None,
    sampler: Optional[Callable[[ServedStack], Any]] = None,
    observer: bool = True,
) -> ServedSlice:
    """Build a stack, populate it, serve ``requests``, count the outcome.

    ``seed`` seeds both the stack and the scheduler (callers derive it:
    a single-stack cell passes its config seed, a shard
    ``derive_seed(seed, "shard:k")``). A ``robustness`` policy or a
    ``fault_plan`` builds the sealed stack; ``resilience`` is the
    loop's policy (``None`` serves under the null policy and leaves the
    degraded-mode counters out); ``sampler``, a factory over the built
    stack, is probed once per scheduling round; ``observer`` attaches
    the guessing attacker whose ``security`` block the counters then
    carry (it observes and never steers: every other counter is the
    same without it). Pure in its arguments: the counters are identical
    whether the slice runs in-process or in a pool worker.
    """
    stack = build_stack(
        scheme=scheme, levels=levels, seed=seed, telemetry=telemetry,
        observer=observer, robustness=robustness, fault_plan=fault_plan,
    )
    if stack.datastore is None:
        stack.kv.preload(items)
    else:
        # Sealed stacks cannot bulk-preload: populate through real puts
        # while the fault wrapper is still disarmed, then arm it --
        # faults fire only on the measured, live-serving portion.
        for key, value in items:
            stack.kv.put(key, value)
        stack.arm_faults()
        # The population advanced the simulated clock; shift arrivals
        # so the open-loop workload starts "now", not in the past.
        t0 = stack.dram_sink.now
        requests = [replace(r, arrival_ns=r.arrival_ns + t0) for r in requests]
    scheduler = BatchScheduler(
        stack.kv, policy=policy, seed=seed,
        clock=lambda: stack.dram_sink.now,
    )
    probe = sampler(stack) if sampler is not None else None
    result = resilient_replay(
        stack, requests, scheduler, resilience or ResilienceConfig(),
        max_batch=max_batch, sampler=probe,
    )
    status = {s: 0 for s in STATUSES}
    for c in result.completions:
        status[c.status] += 1
    stats = scheduler.stats()
    counters: Dict[str, Any] = {
        "requests": len(requests),
        "completions": len(result.completions),
        "status": status,
        # One definition everywhere: answered over attempted (a slice
        # that was asked nothing failed nothing).
        "availability": status[OK] / len(requests) if requests else 1.0,
        "accesses_issued": stats["accesses_issued"],
        "dedup_hits": stats["dedup_hits"],
        "coalesced_puts": stats["coalesced_puts"],
        "absent_gets": stats["absent_gets"],
        "scheduler_timeouts": stats["timeouts"],
        "ops": stats["ops"],
        "batch_size_hist": stats["batch_size_hist"],
        "sim_ns": result.sim_ns,
    }
    if resilience is not None:
        counters.update({
            "degraded_reads": result.degraded_reads,
            "journal": {
                "appends": result.journal_appends,
                "replayed": result.journal_replayed,
                "sheds": result.journal_sheds,
            },
            "retries": result.retries,
            "episodes": episode_block(result.episodes),
            "robust": {
                "counters": stack.kv.oram.robust.to_dict(),
                "backoff_stalled_ns": stack.dram_sink.dram.stats.stalled_ns,
            },
        })
        if stack.faulty is not None:
            counters["faults"] = stack.faulty.summary()
            counters["detection"] = detection_block(counters["faults"])
    security = attacker_block(stack.attacker)
    if security is not None:
        counters["security"] = security
    return ServedSlice(result, counters, probe)
