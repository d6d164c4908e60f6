"""The batching request scheduler over one :class:`ObliviousKV`.

The ORAM admits exactly one oblivious access at a time, so concurrency
cannot come from overlapping accesses -- it comes from *scheduling*.
The scheduler takes a batch of queued requests and:

- **groups** them by key (every chunk of a key's value chain lives in
  the same chain, so key granularity is block granularity);
- **reorders** the groups into a seed-deterministic order (a keyed
  digest of the key bytes), so the served order depends only on the
  batch's *contents*, never on client submission order;
- **dedups** same-key reads: the first get performs the chain's
  oblivious accesses -- after which the chain's blocks are
  stash-resident -- and every other same-key waiter in the batch is
  answered from that single access;
- **coalesces** superseded writes: a put directly followed (within the
  batch, on the same key, with no intervening get) by another write is
  acknowledged without touching the ORAM -- its bytes could never have
  been observed.

Correctness contract: *per-key FIFO*. Operations on one key take
effect in arrival order, so every client receives exactly the value a
serial replay would have produced; only operations on different keys
are reordered. The ORAM-level trace stays indistinguishable -- every
issued access is an ordinary oblivious access, and skipping an access
reveals nothing the (encrypted, padded) chain did not already mask.

The ``"fifo"`` policy is the naive baseline: strict arrival order, one
request at a time, no dedup or coalescing. The benchmark report pits
it against ``"batch"`` to quantify the scheduler's access savings.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.app.kvstore import ObliviousKV
from repro.serve.request import (
    DELETE, GET, PUT, TIMED_OUT, Completion, Request,
)

POLICIES = ("fifo", "batch")

#: Sentinel distinguishing "no cached answer yet" from "cached absent".
_UNSET = object()


class BatchScheduler:
    """Serve batches of requests over one KV store, one access at a time."""

    def __init__(
        self,
        kv: ObliviousKV,
        policy: str = "batch",
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r} (expected {POLICIES})")
        self.kv = kv
        self.policy = policy
        self.seed = seed
        #: The service clock (ns). Replay passes the DRAM-model clock,
        #: the threaded server passes a wall clock; the scheduler only
        #: stamps, never advances.
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._salt = hashlib.sha256(
            b"repro-serve-order|%d" % seed
        ).digest()
        # ------------------------------------------------ counters
        self.requests = 0
        self.batches = 0
        self.dedup_hits = 0
        self.coalesced_puts = 0
        self.absent_gets = 0
        self.timeouts = 0
        self.ops_served: Dict[str, int] = {GET: 0, PUT: 0, DELETE: 0}
        self.batch_size_hist: Dict[int, int] = {}
        self._accesses0 = kv.oram.online_accesses

    # ------------------------------------------------------------- metrics

    @property
    def accesses_issued(self) -> int:
        """Oblivious accesses issued on behalf of served requests."""
        return self.kv.oram.online_accesses - self._accesses0

    def stats(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "accesses_issued": self.accesses_issued,
            "dedup_hits": self.dedup_hits,
            "coalesced_puts": self.coalesced_puts,
            "absent_gets": self.absent_gets,
            "timeouts": self.timeouts,
            "ops": dict(self.ops_served),
            "batch_size_hist": [
                [size, count]
                for size, count in sorted(self.batch_size_hist.items())
            ],
        }

    # ------------------------------------------------------------ ordering

    def order_key(self, key: bytes) -> bytes:
        """Seed-keyed digest ordering key groups within a batch.

        Deterministic for a (seed, key) pair and independent of client
        submission order, so a shuffled batch serves identically to a
        sorted one.
        """
        return hashlib.sha256(self._salt + key).digest()

    # ------------------------------------------------------------- serving

    def serve_batch(self, batch: Sequence[Request]) -> List[Completion]:
        """Serve one admitted batch; returns completions in served order."""
        if not batch:
            return []
        self.batches += 1
        size = len(batch)
        self.batch_size_hist[size] = self.batch_size_hist.get(size, 0) + 1
        self.requests += size
        for req in batch:
            self.ops_served[req.op] += 1
        out: List[Completion] = []
        if self.policy == "fifo":
            # Every request is its own group: nothing to dedup against,
            # nothing to coalesce with.
            for req in batch:
                self._serve_group([req], out)
            return out
        # Group by key; each group serves in arrival order (per-key
        # FIFO holds even if the submission queue was out of order).
        groups: Dict[bytes, List[Request]] = {}
        for req in batch:
            groups.setdefault(req.key, []).append(req)
        for key in sorted(groups, key=self.order_key):
            reqs = groups[key]
            reqs.sort(key=lambda r: (r.arrival_ns, r.rid))
            self._serve_group(reqs, out)
        return out

    # ------------------------------------------------------- deadlines

    def _expired(self, req: Request) -> bool:
        """True when ``req``'s deadline passed before service started.

        Checked immediately before the scheduler would begin the
        request's work: a request that expires mid-operation still
        completes (the access is already in flight and paid for), but
        one whose deadline passed while it queued is refused -- the
        open-loop client it models has already given up.
        """
        return req.deadline_ns is not None and self.clock() >= req.deadline_ns

    def _timeout(self, req: Request, out: List[Completion]) -> None:
        self.timeouts += 1
        now = self.clock()
        out.append(Completion(
            rid=req.rid, op=req.op, key=req.key, value=None, ok=False,
            arrival_ns=req.arrival_ns, start_ns=now, done_ns=now,
            accesses=0, status=TIMED_OUT,
        ))

    # ----------------------------------------------------------- one group

    def _serve_group(self, reqs: List[Request], out: List[Completion]) -> None:
        """Serve one key's requests in arrival order, dedup + coalesce.

        A put is *superseded* when the next operation on the key within
        the batch is another write (put or delete) -- nothing can read
        the skipped bytes, so only the surviving write touches the
        ORAM. Superseded puts are acknowledged when that surviving
        write completes (durability is only real at that point).
        """
        n = len(reqs)
        superseded = [False] * n
        write_ahead = False
        for i in range(n - 1, -1, -1):
            op = reqs[i].op
            if op == GET:
                write_ahead = False
            else:
                if op == PUT and write_ahead:
                    superseded[i] = True
                write_ahead = True
        kv = self.kv
        clock = self.clock
        cached: Any = _UNSET
        cached_window = (0.0, 0.0, 0.0)   # (start_ns, done_ns, wall_s)
        deferred: List[Completion] = []
        for i, req in enumerate(reqs):
            if (
                not (req.op == PUT and superseded[i])
                and self._expired(req)
            ):
                # Deadline passed while queued. A superseded put is
                # exempt: it does no work of its own and inherits the
                # surviving write's outcome. If the *surviving* write
                # expires, the puts it subsumed never became durable
                # either -- fail their already-emitted completions and
                # forget the batch-local value: the store still holds
                # the pre-group state, so later gets must really fetch.
                self._timeout(req, out)
                if req.op != GET:
                    now = self.clock()
                    for d in deferred:
                        d.ok = False
                        d.status = TIMED_OUT
                        d.start_ns = d.done_ns = now
                        self.timeouts += 1
                    deferred.clear()
                    cached = _UNSET
                continue
            if req.op == GET:
                if cached is not _UNSET and cached is not None:
                    # Same-key waiter: the chain is already on-chip (its
                    # blocks sit in the stash after the shared access),
                    # so this client is served without a new access.
                    self.dedup_hits += 1
                    start, done, wall = cached_window
                    out.append(Completion(
                        rid=req.rid, op=GET, key=req.key, value=cached,
                        ok=True, arrival_ns=req.arrival_ns,
                        start_ns=start, done_ns=done,
                        accesses=0, dedup=True, wall_s=wall,
                    ))
                    continue
                t0 = clock()
                a0 = kv.oram.online_accesses
                w0 = time.perf_counter()
                value = kv.get(req.key)
                wall = time.perf_counter() - w0
                done = clock()
                if value is None:
                    self.absent_gets += 1
                cached = value
                cached_window = (t0, done, wall)
                out.append(Completion(
                    rid=req.rid, op=GET, key=req.key, value=value,
                    ok=value is not None, arrival_ns=req.arrival_ns,
                    start_ns=t0, done_ns=done,
                    accesses=kv.oram.online_accesses - a0, wall_s=wall,
                ))
            elif req.op == PUT:
                if superseded[i]:
                    self.coalesced_puts += 1
                    comp = Completion(
                        rid=req.rid, op=PUT, key=req.key, value=None,
                        ok=True, arrival_ns=req.arrival_ns,
                        start_ns=0.0, done_ns=0.0,
                        accesses=0, coalesced=True,
                    )
                    deferred.append(comp)
                    out.append(comp)
                    cached = req.value
                    continue
                t0 = clock()
                a0 = kv.oram.online_accesses
                w0 = time.perf_counter()
                kv.put(req.key, req.value)
                wall = time.perf_counter() - w0
                done = clock()
                cached = req.value
                cached_window = (t0, done, wall)
                comp = Completion(
                    rid=req.rid, op=PUT, key=req.key, value=None, ok=True,
                    arrival_ns=req.arrival_ns, start_ns=t0, done_ns=done,
                    accesses=kv.oram.online_accesses - a0, wall_s=wall,
                )
                out.append(comp)
                for d in deferred:
                    d.start_ns, d.done_ns, d.wall_s = t0, done, wall
                deferred.clear()
            else:   # DELETE
                t0 = clock()
                a0 = kv.oram.online_accesses
                w0 = time.perf_counter()
                existed = kv.delete(req.key)
                wall = time.perf_counter() - w0
                done = clock()
                if cached is not _UNSET:
                    # A coalesced put may exist only logically; report
                    # the per-key-FIFO truth, not the store's.
                    existed = cached is not None
                cached = None
                cached_window = (t0, done, wall)
                out.append(Completion(
                    rid=req.rid, op=DELETE, key=req.key, value=None,
                    ok=existed, arrival_ns=req.arrival_ns,
                    start_ns=t0, done_ns=done,
                    accesses=kv.oram.online_accesses - a0, wall_s=wall,
                ))
                for d in deferred:
                    d.start_ns, d.done_ns, d.wall_s = t0, done, wall
                deferred.clear()
        # Per-key FIFO guarantees deferred puts are always flushed: a
        # superseded put implies a later write in the same group.
        assert not deferred, "superseded put without a surviving write"
