"""The timing engine gluing ORAM controllers to the DRAM model.

:class:`DramSink` implements the controller-facing
:class:`~repro.oram.stats.MemorySink` interface. Every off-chip access
is translated to a physical address via the tree layout and issued to
the DRAM model; each protocol operation's wall time (max completion of
its requests minus its start) is attributed to its operation class,
producing the paper's Fig. 8c breakdown.

Timing approximations (see DESIGN.md section 4): each operation is a
chain of *phases* -- metadata read, data reads, data writes, metadata
write-back -- reflecting the protocol's real dependencies (the
controller cannot pick slots before the metadata arrives, and cannot
write a bucket before reading it). Requests within a phase are issued
together at the phase's start; bank and channel contention then
serializes them exactly as the timing model dictates. A phase starts
when the previous phase's slowest request completes, successive
operations serialize on the sink's clock, and CPU compute between LLC
misses advances the clock by the trace's ``cpu_gap_ns``.

``simulate`` runs one (scheme, trace) pair end to end with optional
warm-up exclusion and returns a :class:`~repro.sim.results.SimResult`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.ab_oram import build_oram
from repro.mem.address_map import LINE_BYTES
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.mem.timing import DDR3_1600, DramTiming
from repro.oram.config import OramConfig
from repro.oram.metadata import record_blocks
from repro.oram.recovery import RobustnessConfig
from repro.oram.ring import RingOram
from repro.oram.stats import MemorySink, OpKind
from repro.sim.results import SimResult
from repro.traces.trace import Trace

#: Outstanding requests per DRAM channel on the pipelined controller's
#: model (depth > 1); the serial model is unwindowed.
DRAM_WINDOW = 32


class DramSink(MemorySink):
    """The timed sink: translates a controller's off-chip touches to
    cache-line numbers and issues them, phase by phase, to the DRAM
    model.

    This class owns everything every timed run shares -- line
    translation, per-kind attribution, the measurement reset and span
    recording (``telemetry``) -- and hands each translated request to a
    small *issue stage*: :meth:`_issue` (a list of lines) and
    :meth:`_issue_stall` (in-op backoff), which move the operation's
    ``_op_start``/``_op_end`` that ``end_op`` attributes. Here the
    stage is immediate (the request goes to the DRAM model as it is
    reported); :class:`~repro.core.pipeline.PipelinedDramSink` overrides
    only the stage to buffer, and replays it at ``end_op``. Phases:
    0 = metadata read, 1 = data reads, 2 = data writes, 3 = metadata
    write-back.
    """

    def __init__(
        self,
        layout: TreeLayout,
        dram: DramModel,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.layout = layout
        self.dram = dram
        self.telemetry = telemetry
        # Cache-line numbers inlined from TreeLayout.data_addr /
        # meta_addr: a slot is one line past its bucket's first line, a
        # metadata record ``stride`` lines past the previous bucket's.
        if layout.cfg.block_bytes != LINE_BYTES:
            raise ValueError(
                f"the timed sink models {LINE_BYTES}B blocks, got "
                f"{layout.cfg.block_bytes}B"
            )
        self._data_line = (layout._offsets // LINE_BYTES).tolist()
        self._meta_line = layout.meta_base // LINE_BYTES
        self._meta_stride = layout.metadata_blocks
        self.now = 0.0
        self.time_by_kind: Dict[OpKind, float] = {k: 0.0 for k in OpKind}
        self.ops_by_kind: Dict[OpKind, int] = {k: 0 for k in OpKind}
        self.readpath_latencies: List[float] = []
        self.remote_accesses = 0
        self._op_start = 0.0
        self._op_end = 0.0
        self._phase = 0
        self._phase_start = 0.0

    # ------------------------------------------------------------- clocking

    def advance(self, ns: float) -> None:
        """Advance the clock (CPU compute between requests)."""
        if ns < 0:
            raise ValueError(f"cannot advance time by {ns}")
        self.now += ns

    def stall(self, ns: float) -> None:
        """Charge controller stall time (retry backoff) to the clock.

        Unlike :meth:`advance`, this is safe *inside* an operation:
        ``end_op`` moves ``now`` to the operation's completion time, so
        mid-op waiting must extend the operation instead.
        """
        if ns < 0:
            raise ValueError(f"cannot stall for {ns}")
        self.dram.stats.stalled_ns += ns
        if self._op_kind is None:
            self.advance(ns)
        else:
            self._issue_stall(ns)

    def reset_measurement(self) -> float:
        """Zero the attribution counters (end of warm-up).

        DRAM bank/bus state and the clock are preserved; returns the
        measurement start time.
        """
        self.time_by_kind = {k: 0.0 for k in OpKind}
        self.ops_by_kind = {k: 0 for k in OpKind}
        self.readpath_latencies = []
        self.remote_accesses = 0
        self.dram.reset_measurement()
        return self.now

    # ------------------------------------------------------------ sink API

    def begin_op(self, kind: OpKind) -> None:
        super().begin_op(kind)
        self._op_start = self.now
        self._op_end = self.now
        self._phase = 0
        self._phase_start = self.now

    def data_access_many(self, items, write):
        # A batch with no off-chip item issues nothing, so it leaves
        # the phase untouched: later lower-phase requests still extend
        # the operation before the next transition samples its end.
        first = self._data_line
        lines = []
        append = lines.append
        remotes = 0
        for bucket, slot, level, onchip, remote in items:
            if onchip:
                continue
            if remote:
                remotes += 1
            append(first[bucket] + slot)
        if not lines:
            return
        self.remote_accesses += remotes
        self._issue(lines, write, 2 if write else 1, items, 3)

    def metadata_access_many(self, items, write, blocks=1):
        base = self._meta_line
        stride = self._meta_stride
        lines = []
        append = lines.append
        if blocks == 1:
            for bucket, level, onchip in items:
                if not onchip:
                    append(base + bucket * stride)
        else:
            for bucket, level, onchip in items:
                if not onchip:
                    line = base + bucket * stride
                    lines += range(line, line + blocks)
        if not lines:
            return
        self._issue(lines, write, 3 if write else 0, items, 2)

    def end_op(self) -> None:
        kind = self._op_kind
        super().end_op()
        start, end = self._op_start, self._op_end
        duration = end - start
        self.time_by_kind[kind] += duration
        self.ops_by_kind[kind] += 1
        if kind is OpKind.READ_PATH:
            # Online latency is the user-facing metric: each entry is
            # one request's memory critical path.
            self.readpath_latencies.append(duration)
        if end > self.now:
            self.now = end
        if self.telemetry is not None:
            self.telemetry.record_span(str(kind), start, duration)

    # --------------------------------------------------------- issue stage

    # The request stage applies the phase rule inline: requests of one
    # phase arrive together at the phase's start, and entering a later
    # phase waits for every earlier request of the operation to
    # complete.

    def _issue(self, lines, write, phase, items, onchip_at) -> None:
        """Issue cache ``lines`` in ``phase``. ``items`` is the reported
        batch behind them and ``onchip_at`` the index of its items'
        on-chip flag (bucket ids sit at index 0) -- unused here, read
        by the buffering stage's conflict tracker."""
        if phase > self._phase:
            self._phase = phase
            self._phase_start = self._op_end
        done = self.dram.access_lines(lines, write, self._phase_start)
        if done > self._op_end:
            self._op_end = done

    def _issue_stall(self, ns: float) -> None:
        self._op_end += ns


@dataclass
class SimConfig:
    """Knobs of one simulation run.

    ``robustness`` attaches the functional sealed data path (an
    :class:`~repro.oram.datastore.EncryptedTreeStore`) plus the
    recovery ladder; ``fault_plan`` additionally wraps that store in a
    :class:`~repro.faults.memory.FaultyMemory` injecting the plan's
    faults (armed only after warm-fill). A fault plan without an
    explicit robustness policy implies ``RobustnessConfig(integrity=
    True)`` -- injecting faults into a stack that cannot detect them is
    almost never what a caller wants.
    """

    timing: DramTiming = DDR3_1600
    warmup_requests: int = 0
    seed: int = 0
    observers: Sequence[Any] = ()
    check_invariants: bool = False
    robustness: Optional[RobustnessConfig] = None
    fault_plan: Optional[Any] = None
    #: Transaction-pipeline depth (see repro.core.pipeline). Depth 1
    #: keeps the historical strictly-serial DramSink -- bit-identical
    #: to every committed baseline; depth > 1 overlaps path reads with
    #: reshuffle/eviction drain (timing only; logical results are
    #: identical at every depth).
    pipeline_depth: int = 1


class OramStack(NamedTuple):
    """What :func:`build_oram_stack` assembles."""

    oram: RingOram
    dram_sink: DramSink
    robustness: Optional[RobustnessConfig]
    #: Sealed data path and its fault wrapper (None when not requested).
    datastore: Optional[Any]
    faulty: Optional[Any]


def build_oram_stack(
    cfg: OramConfig,
    seed: int,
    key_domain: bytes,
    timing: DramTiming = DDR3_1600,
    pipeline_depth: int = 1,
    telemetry: Optional[Any] = None,
    robustness: Optional[RobustnessConfig] = None,
    fault_plan: Optional[Any] = None,
    observers: Sequence[Any] = (),
    store_data: bool = False,
) -> OramStack:
    """The one stack recipe behind :class:`Simulation` and
    :func:`repro.serve.stack.build_stack`: layout, DRAM model, timed
    sink, optional sealed data path, controller, warm-fill.

    Depth 1 builds exactly :class:`DramSink` on the unwindowed model;
    depth > 1 builds the pipelined sink on one windowed to
    :data:`DRAM_WINDOW`. A ``fault_plan`` without an explicit ``robustness``
    policy implies ``RobustnessConfig(integrity=True)``; the sealed
    store's master key is derived from ``key_domain`` + ``seed``, and
    the fault wrapper is returned disarmed so the caller decides when
    injection starts. ``store_data`` keeps plaintext payloads when no
    sealed store is attached.
    """
    if pipeline_depth < 1:
        raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
    layout = TreeLayout(cfg, metadata_blocks=record_blocks(cfg))
    if pipeline_depth > 1:
        from repro.core.pipeline import PipelinedDramSink
        dram_sink: DramSink = PipelinedDramSink(
            layout,
            DramModel(timing, window=DRAM_WINDOW),
            depth=pipeline_depth, telemetry=telemetry,
        )
    else:
        dram_sink = DramSink(layout, DramModel(timing), telemetry)
    if robustness is None and fault_plan is not None:
        robustness = RobustnessConfig(integrity=True)
    datastore = None
    faulty = None
    if robustness is not None:
        from repro.oram.datastore import EncryptedTreeStore
        master_key = hashlib.sha256(key_domain + str(seed).encode()).digest()
        datastore = EncryptedTreeStore(
            cfg, master_key, seed=seed, with_integrity=robustness.integrity,
        )
        if fault_plan is not None:
            # Imported lazily: repro.faults imports this module.
            from repro.faults.memory import FaultyMemory
            faulty = FaultyMemory(datastore, fault_plan)
    # The controller talks straight to the timed sink: the op/time
    # breakdown comes from the sink itself, and a tee'd CountingSink
    # would cost one extra dispatch per memory touch. Drivers that want
    # protocol tallies attach their own TeeSink(CountingSink(...),
    # DramSink(...)) to a RingOram.
    oram = build_oram(
        cfg, sink=dram_sink, seed=seed, observers=observers,
        store_data=store_data and datastore is None,
        datastore=faulty if faulty is not None else datastore,
        robustness=robustness,
    )
    oram.warm_fill()
    return OramStack(oram, dram_sink, robustness, datastore, faulty)


class Simulation:
    """A stepwise, checkpointable simulation of one (scheme, trace) pair.

    The constructor builds the full stack (sinks, DRAM model, ORAM,
    optional sealed store and fault wrapper) and performs warm-fill;
    :meth:`step` services one trace request; :meth:`run` drives the
    loop to completion, optionally persisting a checkpoint every N
    requests. The whole object is picklable, and resuming a pickled
    instance continues bit-identically -- every random stream and every
    piece of timing state lives inside it.
    """

    def __init__(
        self,
        cfg: OramConfig,
        trace: Trace,
        sim: Optional[SimConfig] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        sim = sim or SimConfig()
        if 0 < sim.warmup_requests >= len(trace):
            raise ValueError(
                f"warmup_requests ({sim.warmup_requests}) must be below "
                f"the trace length ({len(trace)}): nothing would be "
                "measured")
        self.cfg = cfg
        self.trace = trace
        self.sim = sim
        self.telemetry = telemetry
        stack = build_oram_stack(
            cfg, seed=sim.seed, key_domain=b"repro/simulate|",
            timing=sim.timing, pipeline_depth=sim.pipeline_depth,
            telemetry=telemetry, robustness=sim.robustness,
            fault_plan=sim.fault_plan, observers=sim.observers,
        )
        self.oram = stack.oram
        self.dram_sink = stack.dram_sink
        self.dram = stack.dram_sink.dram
        self.robustness = stack.robustness
        self.datastore = stack.datastore
        self.faulty = stack.faulty
        if self.faulty is not None:
            # Faults are injected only once warm-fill is over.
            self.faulty.armed = True
        self._i = 0
        self._measure_start = 0.0
        self._counted_from = 0

    # ------------------------------------------------------------- driving

    @property
    def position(self) -> int:
        """Index of the next trace request to service."""
        return self._i

    @property
    def done(self) -> bool:
        return self._i >= len(self.trace)

    def step(self) -> bool:
        """Service one trace request; returns False once exhausted."""
        i = self._i
        if i >= len(self.trace):
            return False
        if i == self.sim.warmup_requests and i > 0:
            self._measure_start = self.dram_sink.reset_measurement()
            self._counted_from = i
        self.dram_sink.advance(self.trace.cpu_gap_ns)
        req = self.trace.requests[i]
        if req.write and self.datastore is not None:
            # Traces carry no payloads; with a sealed data path attached
            # every write still needs bytes to encrypt. A deterministic
            # function of (block, position) keeps runs replayable.
            value = b"%16x%16x" % (req.block, i)
            self.oram.access(req.block, write=True, value=value)
        else:
            self.oram.access(req.block, write=req.write)
        self._i = i + 1
        t = self.telemetry
        if (t is not None and t.metrics_every
                and self._i % t.metrics_every == 0):
            t.record_snapshot(self.telemetry_record())
        return True

    def telemetry_record(self) -> Dict[str, Any]:
        """One periodic telemetry snapshot of the live protocol state."""
        oram = self.oram
        deadq: Dict[str, int] = {}
        rentals = 0
        if oram.ext is not None:
            deadq = {
                str(lv): len(q)
                for lv, q in sorted(oram.ext.queues.queues.items())
            }
            rentals = oram.ext.active_rentals()
        record = {
            "access": self._i,
            "ns": self.dram_sink.now,
            "stash_occupancy": oram.stash.occupancy,
            "stash_peak": oram.stash.peak_occupancy,
            "deadq_depth": deadq,
            "rentals_outstanding": rentals,
            "reshuffles_total": int(oram.store.reshuffles_by_level.sum()),
            "evictions": oram.evict_counter,
        }
        st = self.dram.stats
        record["dram"] = {
            "channel_busy_ns": [float(x) for x in self.dram.channel_busy_ns],
            "bank_busy_peak_ns": float(max(self.dram.bank_busy_ns)),
            "queue_depth_peak": st.queue_depth_peak,
            "queue_depth_mean": st.queue_depth_mean,
        }
        metrics = getattr(self.dram_sink, "pipeline_metrics", None)
        if metrics is not None:
            pipe = metrics()
            elapsed = self.dram_sink.now - self._measure_start
            pipe["dram_busy_frac"] = (
                sum(self.dram.channel_busy_ns)
                / len(self.dram.channel_busy_ns) / elapsed
                if elapsed > 0 else 0.0
            )
            record["pipeline"] = pipe
        if self.robustness is not None:
            # Recovery-ladder progress is state too: fault campaigns
            # watch detections/rebuilds climb and backoff stalls accrue
            # on the same timeline as stash occupancy.
            record["recovery"] = self.oram.robust.to_dict()
            record["dram_stalled_ns"] = self.dram.stats.stalled_ns
        return record

    def run(
        self,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ) -> SimResult:
        """Drive the trace to completion and return the result.

        With ``checkpoint_every`` > 0, the simulation pickles itself to
        ``checkpoint_path`` after every N serviced requests; a run
        resumed from any of those checkpoints finishes bit-identically.
        """
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and not checkpoint_path:
            raise ValueError("checkpoint_every requires a checkpoint path")
        if checkpoint_every and self.telemetry is not None:
            # Checkpoints pickle the whole Simulation; telemetry holds
            # open file handles and half-written streams.
            raise ValueError("telemetry cannot be combined with checkpointing")
        while self.step():
            if (checkpoint_every and not self.done
                    and self._i % checkpoint_every == 0):
                from repro.sim.checkpoint import save_checkpoint
                save_checkpoint(self, checkpoint_path)
        if self.robustness is not None:
            # Corruption caught in the last access's maintenance has no
            # later window to rebuild in; drain it before reporting.
            self.oram.flush_recovery()
        if self.sim.check_invariants:
            self.oram.check_invariants()
        if self.telemetry is not None:
            # Final state snapshot so short runs (< metrics_every) still
            # record at least one data point.
            self.telemetry.record_snapshot(self.telemetry_record())
        return self.result()

    # -------------------------------------------------------------- result

    def _robustness_block(self) -> Optional[Dict[str, Any]]:
        if self.robustness is None:
            return None
        block: Dict[str, Any] = {
            "config": self.robustness.to_dict(),
            "counters": self.oram.robust.to_dict(),
            "datastore": {
                "seals": self.datastore.seals,
                "opens": self.datastore.opens,
            },
            "backoff_stalled_ns": self.dram.stats.stalled_ns,
        }
        if self.datastore.integrity is not None:
            block["integrity"] = {
                "updates": self.datastore.integrity.updates,
                "verifications": self.datastore.integrity.verifications,
            }
        if self.faulty is not None:
            block["faults"] = self.faulty.summary()
        return block

    def result(self) -> SimResult:
        """Build the :class:`SimResult` for everything measured so far."""
        cfg = self.cfg
        oram = self.oram
        dram_sink = self.dram_sink
        dram = self.dram
        measured_requests = self._i - self._counted_from
        exec_ns = dram_sink.now - self._measure_start
        lats = dram_sink.readpath_latencies
        readpath_p50 = float(np.percentile(lats, 50)) if lats else 0.0
        readpath_p99 = float(np.percentile(lats, 99)) if lats else 0.0
        return SimResult(
            scheme=cfg.name,
            trace=self.trace.name,
            requests=measured_requests,
            exec_ns=exec_ns,
            time_by_kind={str(k): v for k, v in dram_sink.time_by_kind.items()},
            ops_by_kind={str(k): v for k, v in dram_sink.ops_by_kind.items()},
            dram_reads=dram.stats.reads,
            dram_writes=dram.stats.writes,
            row_hit_rate=dram.stats.row_hit_rate,
            bytes_transferred=dram.stats.bytes_transferred,
            remote_accesses=dram_sink.remote_accesses,
            tree_bytes=cfg.tree_bytes,
            space_utilization=cfg.space_utilization,
            online_accesses=oram.online_accesses,
            background_accesses=oram.background_accesses,
            evictions=oram.evict_counter,
            stash_peak=oram.stash.peak_occupancy,
            reshuffles_by_level=[int(x) for x in oram.store.reshuffles_by_level],
            extension_ratio=(
                oram.ext.extension_ratio if oram.ext is not None else None
            ),
            dead_blocks=oram.store.total_dead_slots(),
            readpath_p50_ns=readpath_p50,
            readpath_p99_ns=readpath_p99,
            robustness=self._robustness_block(),
        )


def simulate(
    cfg: OramConfig, trace: Trace, sim: Optional[SimConfig] = None,
) -> SimResult:
    """Replay ``trace`` against scheme ``cfg`` and measure everything."""
    return Simulation(cfg, trace, sim).run()
