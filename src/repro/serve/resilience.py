"""Chaos-hardened serving: deadlines, backpressure, degraded mode.

:func:`resilient_replay` is the one open-loop discrete-event serving
loop on the simulated DRAM clock (:func:`repro.serve.replay.replay` is
a call of it under the null policy ``ResilienceConfig()``: no deadline,
no queue bound, and degraded mode needs a quarantine that an unsealed
stack cannot raise). It is built to keep answering while a
:class:`~repro.faults.memory.FaultyMemory` fires bit flips, replays,
dropped writes and outages underneath the store. Three mechanisms,
layered:

- **Deadlines + bounded retry.** Every request carries an absolute
  deadline (``arrival + deadline_ns``) on the simulated clock; a
  request still queued past it completes as ``TIMED_OUT``. Reads the
  degraded store cannot answer yet are retried with the exact
  exponential-backoff semantics of the ORAM-level recovery ladder
  (:class:`~repro.oram.recovery.RobustnessConfig`), lifted to request
  scope: attempt ``k`` waits ``backoff_base_ns * backoff_factor **
  (k-1)`` before re-admission, and a request out of budget completes
  as ``FAILED``.

- **Admission control.** The pending queue is bounded; past the limit
  the configured policy sheds load -- ``reject-new`` refuses the
  arriving request, ``drop-oldest`` evicts the head of the queue in
  its favor. Either way the victim completes as ``SHED``: an outage
  backlog degrades tail latency and availability, never memory.

- **Degraded mode.** When an access quarantines a bucket (persistent
  corruption detected by MAC/Merkle), the loop stops issuing oblivious
  accesses entirely -- the store is wounded and every further access
  risks compounding the damage -- and serves from what the client side
  already holds: reads are answered from the stash payload cache
  (:meth:`~repro.app.kvstore.ObliviousKV.resident_value`) and from the
  write journal; writes buffer into that bounded journal. After
  ``repair_ns`` of simulated repair time the quarantined buckets are
  rebuilt (:meth:`~repro.oram.ring.RingOram.flush_recovery`, charged
  on the same clock) and the journal replays through the batching
  scheduler -- one batch, so its dedup/coalescing machinery preserves
  the per-key FIFO contract across the whole episode.

Per-key FIFO under degradation deserves spelling out. A degraded read
is answered by the newest journaled write on its key that *arrived
before it*; failing that, by the stash-resident (pre-journal) value --
which is exactly the value a serial replay would have produced,
because every journaled write on that key arrived later. A read that
cannot be answered consistently is never served a wrong value: it
waits (bounded by its deadline and retry budget) until the rebuild
lands, and the journal replays *before* any retried read is served.
Failed operations (``TIMED_OUT``/``SHED``/``FAILED``) have no effect
on the store, so the contract quantifies over served operations --
every ``ok`` answer equals the serial-replay answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.request import (
    DELETE, FAILED, GET, PUT, SHED, TIMED_OUT, Completion, Request,
)
from repro.serve.scheduler import BatchScheduler
from repro.serve.stack import ServedStack

SHED_POLICIES = ("reject-new", "drop-oldest")


@dataclass(frozen=True)
class ResilienceConfig:
    """Request-scope survival policy for one serving run.

    ``retry_budget`` / ``backoff_base_ns`` / ``backoff_factor`` carry
    the same meaning as their :class:`RobustnessConfig` namesakes, one
    level up: the ORAM ladder retries a slot open, this policy retries
    a *request*. ``deadline_ns`` and ``queue_limit`` of 0 disable the
    deadline and the queue bound respectively.
    """

    deadline_ns: float = 0.0
    queue_limit: int = 0
    shed_policy: str = "reject-new"
    retry_budget: int = 3
    backoff_base_ns: float = 30_000.0
    backoff_factor: float = 2.0
    journal_limit: int = 64
    #: Simulated repair window: degraded mode lasts this long before
    #: the quarantined buckets are rebuilt and the journal replays.
    repair_ns: float = 300_000.0

    def __post_init__(self) -> None:
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed_policy {self.shed_policy!r} "
                f"(expected one of {SHED_POLICIES})"
            )
        if self.deadline_ns < 0:
            raise ValueError("deadline_ns must be >= 0")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.backoff_base_ns < 0:
            raise ValueError("backoff_base_ns must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.journal_limit < 0:
            raise ValueError("journal_limit must be >= 0")
        if self.repair_ns <= 0:
            raise ValueError("repair_ns must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "deadline_ns": self.deadline_ns,
            "queue_limit": self.queue_limit,
            "shed_policy": self.shed_policy,
            "retry_budget": self.retry_budget,
            "backoff_base_ns": self.backoff_base_ns,
            "backoff_factor": self.backoff_factor,
            "journal_limit": self.journal_limit,
            "repair_ns": self.repair_ns,
        }


@dataclass
class ReplayResult:
    """One served workload: completions, clock bookkeeping, and what
    degraded mode did (all empty / zero under the null policy)."""

    completions: List[Completion]
    #: Simulated serving window (loop entry to last completion).
    start_ns: float
    end_ns: float
    #: Host wall time of the serving loop (host-dependent).
    wall_s: float
    #: One entry per degraded episode: ``{"enter_ns", "exit_ns",
    #: "rebuilt", "journal_replayed"}`` (exit includes the rebuild and
    #: the journal replay, so ``exit - enter`` is time-to-recover).
    episodes: List[Dict[str, Any]] = field(default_factory=list)
    #: Timeline events for tracing: degraded windows, shed/timeout/
    #: failed instants, per-batch fault-injection deltas.
    events: List[Dict[str, Any]] = field(default_factory=list)
    degraded_reads: int = 0
    journal_appends: int = 0
    journal_replayed: int = 0
    journal_sheds: int = 0
    retries: int = 0

    @property
    def sim_ns(self) -> float:
        return self.end_ns - self.start_ns


def _journal_view(
    journal: Sequence[Request], key: bytes, before: Tuple[float, int]
) -> Tuple[bool, Optional[bytes]]:
    """The newest journaled write on ``key`` older than ``before``.

    Returns ``(found, value)``; a found DELETE yields ``(True, None)``.
    """
    found, value = False, None
    for w in journal:
        if w.key != key:
            continue
        if (w.arrival_ns, w.rid) >= before:
            break
        found = True
        value = w.value if w.op == PUT else None
    return found, value


def resilient_replay(
    stack: ServedStack,
    requests: Sequence[Request],
    scheduler: BatchScheduler,
    rcfg: ResilienceConfig,
    max_batch: int = 32,
    sampler: Optional[Any] = None,
) -> ReplayResult:
    """Serve ``requests`` (arrival-ordered) open-loop, surviving faults.

    Requests *arrive* at their timestamps whether or not the server is
    ready; whenever the controller goes idle the loop admits everything
    that has arrived and serves the first ``max_batch`` eligible
    requests as one scheduler batch (the ``fifo`` policy still admits
    batches -- admission is just queue drainage -- but serves them one
    request at a time). Queueing therefore emerges as it would in a
    single-controller deployment: bursts outrun the controller, queues
    deepen, batches fatten.

    The loop owns rebuild scheduling: ``defer_rebuilds`` is switched on
    so a quarantine detected mid-batch holds until the repair window,
    during which the store serves degraded. Deterministic in (workload
    seed, stack seed, config) -- every decision runs off the simulated
    clock.

    Queue handling is O(batch) while nothing is backing off -- always,
    outside a degraded episode: the batch is the queue head, taken and
    removed by position. The per-request scans (backoff eligibility,
    deadline expiry, the idle wake-up) run only while a request is
    backing off or can expire.

    ``sampler`` (an :class:`~repro.telemetry.console.OpsSampler`) is
    probed once per scheduling round with the live queue/journal state;
    it only reads, so attaching one changes nothing the loop decides.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    sink = stack.dram_sink
    kv = stack.kv
    oram = kv.oram
    oram.defer_rebuilds = True
    faulty = stack.faulty

    result = ReplayResult(
        completions=[], start_ns=sink.now, end_ns=sink.now, wall_s=0.0,
    )
    completions = result.completions
    events = result.events
    queue: List[Request] = []
    #: rid -> (retries so far, earliest re-admission time).
    retry_meta: Dict[int, Tuple[int, float]] = {}
    journal: List[Request] = []
    degraded_since: Optional[float] = None
    repair_due = 0.0
    quarantined_at_enter = 0
    injected0 = dict(faulty.injected) if faulty is not None else {}
    can_expire = rcfg.deadline_ns > 0 or any(
        r.deadline_ns is not None for r in requests
    )

    def terminal(req: Request, status: str, ns: float) -> None:
        retry_meta.pop(req.rid, None)
        completions.append(Completion(
            rid=req.rid, op=req.op, key=req.key, value=None, ok=False,
            arrival_ns=req.arrival_ns, start_ns=ns, done_ns=ns,
            accesses=0, status=status,
        ))
        events.append({
            "kind": status, "ns": ns, "rid": req.rid, "op": req.op,
        })

    def serve_degraded_read(req: Request, now: float) -> bool:
        """Answer one read without an access; False = not answerable."""
        found, value = _journal_view(
            journal, req.key, (req.arrival_ns, req.rid)
        )
        if not found:
            resident, value = kv.resident_value(req.key)
            if not resident:
                return False
        ok = value is not None
        if not ok:
            scheduler.absent_gets += 1
        result.degraded_reads += 1
        completions.append(Completion(
            rid=req.rid, op=GET, key=req.key, value=value, ok=ok,
            arrival_ns=req.arrival_ns, start_ns=now, done_ns=now,
            accesses=0, degraded=True,
        ))
        return True

    def note_faults(now: float) -> None:
        """Emit a timeline event when the wrapper injected new faults."""
        if faulty is None:
            return
        delta = {
            k: faulty.injected[k] - injected0.get(k, 0)
            for k in faulty.injected
            if faulty.injected[k] != injected0.get(k, 0)
        }
        if delta:
            injected0.update(faulty.injected)
            events.append({"kind": "faults", "ns": now, "injected": delta})

    def enter_degraded(now: float) -> None:
        nonlocal degraded_since, repair_due, quarantined_at_enter
        degraded_since = now
        repair_due = now + rcfg.repair_ns
        quarantined_at_enter = oram.quarantine_pending
        events.append({
            "kind": "degraded_enter", "ns": now,
            "quarantined": quarantined_at_enter,
        })

    def repair() -> None:
        """Rebuild quarantined buckets, replay the journal, go normal."""
        nonlocal degraded_since
        enter_ns = degraded_since
        oram.flush_recovery()
        # Retried reads older than a journaled write on their key must
        # resolve against the pre-replay store (their consistent view
        # vanishes once the journal lands): serve resident ones, fail
        # the rest. Reads on unjournaled keys keep waiting -- their
        # key's state is untouched, normal serving resumes for them.
        journaled_keys = {w.key for w in journal}
        now = sink.now
        still: List[Request] = []
        for req in queue:
            if req.op == GET and req.key in journaled_keys:
                if not serve_degraded_read(req, now):
                    terminal(req, FAILED, now)
                else:
                    retry_meta.pop(req.rid, None)
            else:
                still.append(req)
        queue[:] = still
        replayed = [replace(w, deadline_ns=None) for w in journal]
        journal.clear()
        if replayed:
            comps = scheduler.serve_batch(replayed)
            for c in comps:
                c.degraded = True
            completions.extend(comps)
            result.journal_replayed += len(replayed)
        # Clear every surviving retry backoff: the queue is admission-
        # ordered, so making held-back reads eligible *now* means the
        # next normal batch serves them before any newer same-key write
        # -- a read left in backoff past the repair could otherwise be
        # overtaken by a later arrival, breaking per-key FIFO.
        retry_meta.clear()
        exit_ns = sink.now
        result.episodes.append({
            "enter_ns": enter_ns,
            "exit_ns": exit_ns,
            "rebuilt": quarantined_at_enter,
            "journal_replayed": len(replayed),
        })
        events.append({
            "kind": "degraded_exit", "ns": exit_ns,
            "enter_ns": enter_ns, "journal_replayed": len(replayed),
        })
        degraded_since = None
        note_faults(exit_ns)
        # The replay itself ran over faulty memory; a fresh quarantine
        # re-enters degraded mode immediately.
        if oram.quarantine_pending:
            enter_degraded(exit_ns)

    i, n = 0, len(requests)
    wall0 = time.perf_counter()
    while True:
        now = sink.now
        if sampler is not None:
            sampler.sample(
                now, len(queue), completions,
                degraded_since is not None, len(journal),
            )
        # ---- admit arrivals (bounded queue, shedding past the limit)
        while i < n and requests[i].arrival_ns <= now:
            req = requests[i]
            i += 1
            if rcfg.deadline_ns > 0:
                req = replace(
                    req, deadline_ns=req.arrival_ns + rcfg.deadline_ns
                )
            if rcfg.queue_limit > 0 and len(queue) >= rcfg.queue_limit:
                if rcfg.shed_policy == "reject-new":
                    terminal(req, SHED, now)
                    continue
                victim = queue.pop(0)
                terminal(victim, SHED, now)
            queue.append(req)
        # ---- expire queued deadlines
        if can_expire:
            expired = [
                r for r in queue
                if r.deadline_ns is not None and now >= r.deadline_ns
            ]
            if expired:
                gone = {id(r) for r in expired}
                queue = [r for r in queue if id(r) not in gone]
                for req in expired:
                    terminal(req, TIMED_OUT, now)
        # ---- repair window over?
        if degraded_since is not None and now >= repair_due:
            repair()
            continue
        # ---- serve what is eligible
        if retry_meta:
            eligible = [
                r for r in queue
                if retry_meta.get(r.rid, (0, 0.0))[1] <= now
            ][:max_batch]
        else:
            eligible = queue[:max_batch]
        if eligible:
            if degraded_since is None:
                # Backoffs exist only inside a degraded episode
                # (repair() clears them on the way out), so here the
                # batch is the queue head and leaves by position.
                assert not retry_meta, "backoff outside degraded mode"
                del queue[:len(eligible)]
                completions.extend(scheduler.serve_batch(eligible))
                after = sink.now
                note_faults(after)
                if oram.quarantine_pending:
                    enter_degraded(after)
                continue
            # Degraded: answer reads client-side, journal writes.
            progressed = False
            for req in eligible:
                if req.op == GET:
                    if serve_degraded_read(req, now):
                        queue.remove(req)
                        retry_meta.pop(req.rid, None)
                        progressed = True
                        continue
                    retries, _ = retry_meta.get(req.rid, (0, now))
                    if retries >= rcfg.retry_budget:
                        queue.remove(req)
                        terminal(req, FAILED, now)
                        progressed = True
                        continue
                    retries += 1
                    result.retries += 1
                    backoff = (
                        rcfg.backoff_base_ns
                        * rcfg.backoff_factor ** (retries - 1)
                    )
                    retry_meta[req.rid] = (retries, now + backoff)
                    continue
                # Writes: buffer into the bounded journal; the ack is
                # deferred to the replay (durability is only real then).
                queue.remove(req)
                if rcfg.journal_limit and len(journal) < rcfg.journal_limit:
                    journal.append(req)
                    result.journal_appends += 1
                else:
                    result.journal_sheds += 1
                    terminal(req, SHED, now)
                progressed = True
            if progressed:
                continue
        # ---- idle: advance to the next event on the simulated clock
        wake: List[float] = []
        if i < n:
            wake.append(requests[i].arrival_ns)
        if degraded_since is not None:
            wake.append(repair_due)
        if can_expire or retry_meta:
            for r in queue:
                meta = retry_meta.get(r.rid)
                if meta is not None:
                    wake.append(meta[1])
                if r.deadline_ns is not None:
                    wake.append(r.deadline_ns)
        if not wake:
            break
        target = min(wake)
        if target <= now:
            # Float-safe guard: never stall the event loop.
            target = now + 1.0
        sink.advance(target - now)

    result.end_ns = sink.now
    result.wall_s = time.perf_counter() - wall0
    if sampler is not None:
        sampler.finish(result.end_ns, completions)
    return result


__all__ = [
    "ReplayResult",
    "ResilienceConfig",
    "SHED_POLICIES",
    "resilient_replay",
]
