"""A thread-pool server front-end over the batching scheduler.

Clients (any number of threads) submit operations and receive
:class:`concurrent.futures.Future` objects; a single scheduler thread
drains the queue in admission batches and services them through
:class:`~repro.serve.scheduler.BatchScheduler`. The ORAM still admits
exactly one oblivious access at a time -- the server's concurrency is
in *admission and batching*, which is precisely where a single-
controller oblivious store can win: queued same-key reads collapse
into one access, superseded writes are acknowledged for free.

The clock is wall nanoseconds (``time.perf_counter_ns``), so
completions report real queueing and service windows; simulated-ns
serving lives in :mod:`repro.serve.replay`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional

from repro.app.kvstore import ObliviousKV
from repro.serve.request import PUT, Completion, Request
from repro.serve.scheduler import MAX_BATCH, BatchScheduler


#: Seconds ``close`` waits for the serving thread before failing what
#: is still pending.
JOIN_TIMEOUT_S = 30.0
#: The scheduler policy of every server.
POLICY = "batch"


class KVServer:
    """Concurrent front-end: many submitters, one serving thread."""

    def __init__(self, kv: ObliviousKV, seed: int = 0) -> None:
        #: The exception that killed the serve loop, if it died.
        self._worker_error: Optional[BaseException] = None
        self._t0 = time.perf_counter_ns()
        self.scheduler = BatchScheduler(
            kv, policy=POLICY, seed=seed, clock=self._clock,
        )
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: List[Request] = []
        self._futures: Dict[int, "Future[Completion]"] = {}
        self._next_rid = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._serve_loop, name="kv-server", daemon=True,
        )
        self._thread.start()

    def _clock(self) -> float:
        """Wall clock in ns, zeroed at server start."""
        return float(time.perf_counter_ns() - self._t0)

    # ------------------------------------------------------------- clients

    def submit(
        self, op: str, key: bytes, value: Optional[bytes] = None
    ) -> "Future[Completion]":
        """Enqueue one operation; resolves to its :class:`Completion`."""
        future: "Future[Completion]" = Future()
        with self._work:
            if self._closed:
                raise RuntimeError("server is closed")
            if self._worker_error is not None:
                raise RuntimeError(
                    "server serve loop died"
                ) from self._worker_error
            rid = self._next_rid
            self._next_rid = rid + 1
            self._queue.append(Request(
                rid=rid, op=op, key=key, value=value,
                arrival_ns=self._clock(),
            ))
            self._futures[rid] = future
            self._work.notify()
        return future

    def put(self, key: bytes, value: bytes) -> Completion:
        """Blocking convenience put."""
        return self.submit(PUT, key, value).result()

    # ------------------------------------------------------------- serving

    def _serve_loop(self) -> None:
        try:
            self._serve_batches()
        except BaseException as exc:   # noqa: BLE001 - recorded, fanned out
            # The loop itself died (scheduler bug, broken clock, ...).
            # Record the cause and fail everything still pending so no
            # client -- present or future -- blocks on a dead worker.
            with self._work:
                self._worker_error = exc
                self._fail_pending_locked(exc)
                self._work.notify_all()

    def _serve_batches(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._closed:
                    self._work.wait()
                if not self._queue and self._closed:
                    return
                batch = self._queue[:MAX_BATCH]
                del self._queue[:MAX_BATCH]
            try:
                completions = self.scheduler.serve_batch(batch)
            except BaseException as exc:   # noqa: BLE001 - fanned out below
                with self._work:
                    for req in batch:
                        future = self._futures.pop(req.rid, None)
                        if future is not None:
                            future.set_exception(exc)
                continue
            with self._work:
                for comp in completions:
                    future = self._futures.pop(comp.rid, None)
                    if future is not None:
                        future.set_result(comp)

    def _fail_pending_locked(self, exc: BaseException) -> None:
        """Fail every queued request's future (caller holds the lock)."""
        self._queue.clear()
        pending, self._futures = self._futures, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Stop the serving thread after draining the queue.

        Never hangs: the join is bounded by ``JOIN_TIMEOUT_S``, and if
        the serve loop died (or wedged) any still-pending futures are
        failed with the worker's exception instead of waiting forever.
        """
        with self._work:
            if self._closed:
                return
            self._closed = True
            self._work.notify_all()
        self._thread.join(timeout=JOIN_TIMEOUT_S)
        with self._work:
            if self._futures or self._queue:
                exc = self._worker_error
                if exc is None:
                    exc = RuntimeError(
                        "server closed with the serve loop "
                        f"unresponsive after {JOIN_TIMEOUT_S:g}s"
                    )
                self._fail_pending_locked(exc)

    def stats(self) -> Dict[str, Any]:
        return self.scheduler.stats()

    def __enter__(self) -> "KVServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
