"""Open-loop replay: drive a generated workload on the DRAM-ns clock.

The replay is a discrete-event serving loop over the simulated clock
(:attr:`DramSink.now`): requests *arrive* at their generated
timestamps whether or not the server is ready (open loop), the
scheduler admits everything that has arrived (up to ``max_batch``)
whenever it goes idle, and service advances the clock through the
event-based DRAM model. Queueing therefore emerges exactly as it
would in a real single-controller deployment: bursts outrun the
controller, queues deepen, batches fatten, and the scheduler's dedup
gets more to work with.

Everything the loop records is deterministic in (workload seed, stack
seed) -- the latency percentiles in ``BENCH_serve.json`` are exact,
not sampled.

:func:`serve_slice` is the one recipe every report cell is cut from
(serve, chaos, chaos-shard and fleet-shard cells alike): build a stack,
populate it, serve a request slice through this loop or its resilient
sibling, and count what happened.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import TAMPER_KINDS
from repro.serve.request import OK, STATUSES, Completion, Request
from repro.serve.resilience import ResilienceConfig, resilient_replay
from repro.serve.scheduler import BatchScheduler
from repro.serve.stack import ServedStack, attacker_block, build_stack


@dataclass
class ReplayResult:
    """One replayed workload: completions plus clock bookkeeping."""

    completions: List[Completion]
    #: Simulated serving window (first admission to last completion).
    start_ns: float
    end_ns: float
    #: Host wall time of the serving loop (host-dependent).
    wall_s: float

    @property
    def sim_ns(self) -> float:
        return self.end_ns - self.start_ns


def replay(
    stack: ServedStack,
    requests: Sequence[Request],
    scheduler: BatchScheduler,
    max_batch: int = 32,
) -> ReplayResult:
    """Serve ``requests`` (arrival-ordered) through ``scheduler``.

    ``max_batch`` caps admission per scheduling round; the ``fifo``
    policy still admits batches (admission is just queue drainage) but
    serves them strictly one request at a time, so its latencies are
    identical to single-request admission.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    sink = stack.dram_sink
    completions: List[Completion] = []
    i, n = 0, len(requests)
    wall0 = time.perf_counter()
    start_ns = sink.now
    while i < n:
        now = sink.now
        next_arrival = requests[i].arrival_ns
        if next_arrival > now:
            # Idle until the next arrival: open loop never back-fills.
            sink.advance(next_arrival - now)
            now = next_arrival
        batch = [requests[i]]
        i += 1
        while (
            i < n
            and len(batch) < max_batch
            and requests[i].arrival_ns <= now
        ):
            batch.append(requests[i])
            i += 1
        completions.extend(scheduler.serve_batch(batch))
    return ReplayResult(
        completions=completions,
        start_ns=start_ns,
        end_ns=sink.now,
        wall_s=time.perf_counter() - wall0,
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
    -- when the resilient loop ran -- ``degraded_reads / journal /
    retries / episodes / robust`` plus ``faults`` and ``detection`` if
    a fault plan was armed; ``security`` when the guessing observer saw
    accesses. Callers pick the keys their report format carries.
    """

    #: ``ReplayResult``, or ``ChaosReplayResult`` from the resilient loop.
    result: Any
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
    max_batch: int = 32,
    robustness: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
    resilience: Optional[ResilienceConfig] = None,
    telemetry: Optional[Any] = None,
    sampler: Optional[Callable[[ServedStack], Any]] = None,
) -> ServedSlice:
    """Build a stack, populate it, serve ``requests``, count the outcome.

    ``seed`` seeds both the stack and the scheduler (callers derive it:
    a single-stack cell passes its config seed, a shard
    ``derive_seed(seed, "shard:k")``). A ``robustness`` policy or a
    ``fault_plan`` builds the sealed stack; ``resilience`` selects
    :func:`~repro.serve.resilience.resilient_replay` over :func:`replay`
    (``sampler``, a factory over the built stack, is probed by that
    loop only). Pure in its arguments: the counters are identical
    whether the slice runs in-process or in a spawn worker.
    """
    stack = build_stack(
        scheme=scheme, levels=levels, seed=seed, telemetry=telemetry,
        observer=True, robustness=robustness, fault_plan=fault_plan,
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
    probe = None
    if resilience is None:
        result: Any = replay(stack, requests, scheduler, max_batch=max_batch)
    else:
        probe = sampler(stack) if sampler is not None else None
        result = resilient_replay(
            stack, requests, scheduler, resilience,
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
