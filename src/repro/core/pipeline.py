"""Transaction-pipelined timing sink: overlap path reads with drain.

:class:`PipelinedDramSink` is a drop-in replacement for
:class:`~repro.sim.engine.DramSink` that decouples the controller's
*logical* execution from the DRAM *timing* schedule. The controller
still runs strictly sequentially -- same code, same RNG streams, so
fetched values, stash contents and the position map are identical at
every depth -- but the timestamps its operations are replayed at may
overlap: the path read for access k+1 is issued while the reshuffle /
eviction write-backs for access k are still draining into DRAM.

How it works
------------

Every protocol operation (``begin_op`` .. ``end_op``) is *buffered*:
the sink is a :class:`~repro.sim.engine.DramSink` whose issue stage
records each translated request (cache lines, direction, phase) instead
of handing it to the DRAM model immediately. At ``end_op`` the
operation is scheduled as a unit:

- Operations are grouped into *transactions*: one online operation
  (readPath or posMap) plus the maintenance work (evictPath,
  earlyReshuffle, background, recovery) that follows it. A new
  transaction opens at the next online ``begin_op`` after a clock
  advance, after any maintenance op, or after the current transaction
  already performed its online op -- so batched serving pipelines
  per-access without driver changes.
- An explicit in-flight transaction table enforces the pipeline
  shape: transaction k's first operation may not start before
  transaction k-1's first operation (in-order issue) nor before
  transaction k-depth completed (bounded depth); accumulated CPU gap
  (``advance``) is added once at transaction start. Operations within
  a transaction chain on each other, exactly as in the serial sink.
- A bucket-level conflict tracker replaces global serialization: an
  operation touching an off-chip bucket whose earlier operation (e.g.
  an in-flight reshuffle) has not completed waits for *that bucket*
  only; on-chip treetop levels never conflict. Stalls are counted as
  ``pipeline.conflict_stalls`` / ``conflict_stall_ns``.
- Within an operation the buffered requests are replayed through the
  serial sink's own issue stage (metadata read -> data reads -> data
  writes -> metadata write-back), so at ``depth=1`` every float
  operation matches :class:`~repro.sim.engine.DramSink` and the
  schedule is bit-identical (``tests/test_sim.py`` pins it; production
  configs route depth 1 through the serial sink anyway, which pays
  nothing for buffering).

Operations are issued to the DRAM model in program order with
possibly-earlier arrival stamps. The model runs windowed, so each
request is placed into the earliest free slot of its bank's and its
channel bus's interval ledgers at or after its ready time: a later
call may backfill a gap that an earlier call left open. A placed
request is never moved later, so earlier-issued operations are never
retroactively delayed (a causal approximation). Two consequences are
documented rather than hidden: summed per-kind operation times can
exceed ``exec_ns`` once operations overlap, and ``now`` is the
completion frontier advanced by CPU pacing, so an idle ``advance``
lands on top of the frontier.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.oram.stats import OpKind
from repro.sim.engine import DramSink

#: Online (latency-critical) operation kinds; everything else is
#: maintenance that a later transaction's read may overlap with.
ONLINE_KINDS = frozenset((OpKind.READ_PATH, OpKind.POSMAP))


class PipelinedDramSink(DramSink):
    """Schedule buffered protocol ops with bounded-depth overlap.

    A :class:`~repro.sim.engine.DramSink` whose issue stage buffers:
    translated requests are recorded per operation and replayed onto
    the DRAM model at ``end_op``, at the start time the transaction
    table and the bucket conflict tracker allow.
    """

    def __init__(
        self,
        layout: TreeLayout,
        dram: DramModel,
        depth: int,
        telemetry: Optional[Any] = None,
    ) -> None:
        if depth < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {depth}")
        super().__init__(layout, dram, telemetry)
        self.depth = depth
        # ---------------------------------------- transaction table
        #: Start time of the last transaction's first op (in-order issue).
        self._issue_frontier = 0.0
        #: Max completion over transactions retired from the window.
        self._retire_floor = 0.0
        #: Completions of the last < depth finalized transactions.
        self._inflight: Deque[float] = deque()
        self._txn_index = -1
        self._txn_open = False
        self._txn_end = 0.0
        self._txn_has_online = False
        self._boundary = True
        self._pending_gap = 0.0
        #: bucket id -> completion of its last in-flight *write-back*
        #: (reshuffle / eviction refill). Reads only check this table;
        #: they never register in it -- read-vs-read overlap on a
        #: bucket is harmless, only a bucket whose reshuffle is still
        #: draining must stall the transactions that touch it.
        self._bucket_free: Dict[int, float] = {}
        # ---------------------------------------- per-op buffering
        self._op_new_txn = False
        self._ev: List[Tuple[Callable[..., None], Tuple]] = []
        self._op_buckets: Set[int] = set()
        self._op_wbuckets: Set[int] = set()
        # ---------------------------------------- pipeline metrics
        self._reset_pipeline_metrics()
        if telemetry is not None:
            tracks = telemetry.process.tracks
            for lane in range(depth):
                tracks.setdefault(1 + lane, f"pipeline lane {lane}")

    def _reset_pipeline_metrics(self) -> None:
        self.txns = 0
        self.conflict_stalls = 0
        self.conflict_stall_ns = 0.0
        self.inflight_peak = 0
        self.inflight_sum = 0
        self.inflight_samples = 0

    # ------------------------------------------------------------- clocking

    def advance(self, ns: float) -> None:
        """Advance the clock (CPU compute between requests).

        The gap is banked and added once at the next transaction's
        start, so pacing constrains issue order without serializing
        against in-flight maintenance drain. ``now`` is the completion
        frontier advanced by CPU pacing (see module doc).
        """
        super().advance(ns)
        self._pending_gap += ns
        self._boundary = True

    def reset_measurement(self) -> float:
        """Zero the attribution counters (end of warm-up).

        DRAM bank/bus state, the clock and the transaction table are
        preserved; returns the measurement start time. Transactions
        already in flight at the boundary keep draining, so the first
        measured transactions may overlap warm-up work -- the same
        boundary approximation the serial model makes for open rows.
        """
        self._reset_pipeline_metrics()
        return super().reset_measurement()

    def begin_op(self, kind: OpKind) -> None:
        super().begin_op(kind)
        self._op_new_txn = kind in ONLINE_KINDS and (
            self._boundary or self._txn_has_online
        )

    # ---------------------------------------------------------- issue stage

    # Each hook buffers the serial sink's own stage call, bound, for
    # :meth:`_replay` to make once the operation's start is known.

    def _issue(self, lines, write, phase, buckets) -> None:
        self._ev.append((super()._issue, (lines, write, phase, ())))
        touched = list(buckets)
        self._op_buckets.update(touched)
        if phase == 2:
            self._op_wbuckets.update(touched)

    def _issue_stall(self, ns: float) -> None:
        self._ev.append((super()._issue_stall, (ns,)))

    # ----------------------------------------------------------- scheduling

    def end_op(self) -> None:
        if self._op_kind is not None:
            self._schedule(self._op_kind)
        super().end_op()

    def _schedule(self, kind: OpKind) -> None:
        """Place the buffered op as a unit and replay it there."""
        if self._op_new_txn:
            # Finalize the previous transaction into the in-flight
            # window; entries pushed past the depth bound retire into
            # the floor every later transaction must clear.
            if self._txn_open:
                self._inflight.append(self._txn_end)
                while len(self._inflight) > self.depth - 1:
                    done = self._inflight.popleft()
                    if done > self._retire_floor:
                        self._retire_floor = done
            chain = self._issue_frontier
            if self._retire_floor > chain:
                chain = self._retire_floor
            self._txn_open = True
            self._txn_index += 1
            self._txn_has_online = False
            self._txn_end = 0.0
        else:
            chain = self._txn_end if self._txn_open else 0.0
        start = chain + self._pending_gap
        self._pending_gap = 0.0
        # Bucket-level conflicts: wait for the latest in-flight op on
        # any off-chip bucket this op touches (and only for those).
        free = self._bucket_free
        pre = start
        for bucket in self._op_buckets:
            t = free.get(bucket)
            if t is not None and t > start:
                start = t
        if start > pre:
            self.conflict_stalls += 1
            self.conflict_stall_ns += start - pre
        if self._op_new_txn:
            self.txns += 1
            # The issue frontier advances by the *pre-conflict* issue
            # point: a bucket conflict stalls only this transaction,
            # never the ones behind it.
            self._issue_frontier = pre
            occupancy = 1
            for done in self._inflight:
                if done > start:
                    occupancy += 1
            self.inflight_sum += occupancy
            self.inflight_samples += 1
            if occupancy > self.inflight_peak:
                self.inflight_peak = occupancy
        end = self._replay(start)
        for bucket in self._op_wbuckets:
            free[bucket] = end
        if end > self._txn_end:
            self._txn_end = end
        if kind in ONLINE_KINDS:
            self._txn_has_online = True
        else:
            # Maintenance finished: the next online op is a new access
            # even if the driver never advances the clock (serving).
            self._boundary = True
        if self.telemetry is not None:
            self.telemetry.process.span(
                str(kind), "pipeline", 1 + self._txn_index % self.depth,
                start, end - start, {"txn": self._txn_index},
            )
        # Cleared here, not at begin_op: between operations the sink
        # must hold no buffered calls (checkpoints pickle it).
        self._ev = []
        self._op_buckets = set()
        self._op_wbuckets = set()

    def _replay(self, start: float) -> float:
        """Issue the buffered op at ``start``; returns its completion.

        The buffered calls are the serial sink's issue stage, so the
        phase rule exists once and depth 1 is the serial schedule; the
        stage's held lines are sent before the completion is read.
        """
        self._op_start = self._op_end = self._phase_start = start
        self._phase = 0
        for issue, args in self._ev:
            issue(*args)
        self._flush()
        return self._op_end

    # -------------------------------------------------------------- metrics

    def pipeline_metrics(self) -> Dict[str, float]:
        """Occupancy / conflict counters for telemetry export."""
        online = 0.0
        maint = 0.0
        for kind, ns in self.time_by_kind.items():
            if kind in ONLINE_KINDS:
                online += ns
            else:
                maint += ns
        return {
            "depth": self.depth,
            "txns": self.txns,
            "inflight_peak": self.inflight_peak,
            "inflight_mean": (
                self.inflight_sum / self.inflight_samples
                if self.inflight_samples else 0.0
            ),
            "conflict_stalls": self.conflict_stalls,
            "conflict_stall_ns": self.conflict_stall_ns,
            "online_busy_ns": online,
            "maint_busy_ns": maint,
        }
