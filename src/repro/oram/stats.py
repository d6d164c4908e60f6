"""Operation accounting shared by all ORAM controllers.

Controllers narrate their memory behaviour to a *sink*: every operation
(readPath, evictPath, earlyReshuffle, background-eviction dummy work) is
bracketed by ``begin_op``/``end_op`` and every block or metadata touch
inside it is reported with its tree coordinates. Sinks decide what to do
with that stream:

- :class:`CountingSink` tallies counts (used by unit tests and the
  count-based benchmarks);
- ``repro.sim.engine.DramSink`` forwards off-chip touches to the DRAM
  timing model to produce execution times.

Accesses to treetop-cached levels are reported with ``onchip=True`` so
sinks can exclude them from memory traffic while analyses can still see
them.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: One batched data touch: (bucket, slot, level, onchip, remote).
DataItem = Tuple[int, int, int, bool, bool]
#: One batched metadata touch: (bucket, level, onchip).
MetaItem = Tuple[int, int, bool]


class OpKind(enum.Enum):
    """Protocol operation classes (the paper's Fig. 8c breakdown)."""

    READ_PATH = "readPath"
    EVICT_PATH = "evictPath"
    EARLY_RESHUFFLE = "earlyReshuffle"
    BACKGROUND = "background"
    POSMAP = "posMap"
    RECOVERY = "recovery"

    # Members are singletons, so identity hashing keys the per-op dicts
    # ``DramSink.end_op`` updates on every operation; ``Enum.__hash__``
    # hashes the member's name in Python code each time.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class MemorySink:
    """Interface controllers talk to. Base implementation counts nothing
    but owns operation bracketing for the whole sink family: a nested
    ``begin_op`` or an ``end_op`` without a matching ``begin_op`` is a
    controller bug, raised here and nowhere else (subclasses call
    ``super()``).

    The unit of memory work is a batch (a whole path of buckets), so the
    protocol is the two batch primitives -- :meth:`data_access_many` and
    :meth:`metadata_access_many` -- which every sink implements. Two
    batch shapes recur often enough to have calls of their own, and
    their base bodies are the primitive calls they stand for, so a sink
    that implements only the primitives sees the same stream:
    :meth:`bucket_access` (one bucket's share of a reshuffle) and
    :meth:`metadata_access_prepared` (a readPath's per-leaf metadata,
    put in the sink's own form once by :meth:`prepare_metadata`). The
    timed sink overrides both to skip the per-touch tuples.
    """

    _op_kind: Optional[OpKind] = None

    def begin_op(self, kind: OpKind) -> None:
        """An operation of class ``kind`` starts."""
        if self._op_kind is not None:
            raise RuntimeError(
                f"nested operation: {kind} inside {self._op_kind}"
            )
        self._op_kind = kind

    def data_access_many(self, items: Sequence[DataItem], write: bool) -> None:
        """Data touches sharing one direction and protocol phase."""

    def metadata_access_many(
        self, items: Sequence[MetaItem], write: bool, blocks: int = 1
    ) -> None:
        """Bucket-metadata touches, ``blocks`` 64B units per bucket."""

    def bucket_access(
        self, bucket: int, level: int, onchip: bool, write: bool,
        slots: Sequence[int], hosts: Sequence[Tuple[int, int]], blocks: int,
    ) -> None:
        """One bucket's share of a reshuffle. A read is the bucket's
        metadata record, then one read per entry of ``slots``; a write
        is ``slots``, then the rented ``hosts`` (``(bucket, slot)`` at
        the renter's level), then the record."""
        meta = ((bucket, level, onchip),)
        if write:
            items = [(bucket, slot, level, onchip, False) for slot in slots]
            items += [(hb, hs, level, onchip, True) for hb, hs in hosts]
            self.data_access_many(items, True)
            self.metadata_access_many(meta, True, blocks)
        else:
            self.metadata_access_many(meta, False, blocks)
            self.data_access_many(
                [(bucket, slot, level, onchip, False) for slot in slots],
                False)

    def prepare_metadata(self, items: Sequence[MetaItem], blocks: int):
        """A metadata batch reported many times (a readPath's records
        are fixed per leaf), in the form :meth:`metadata_access_prepared`
        takes. The caller keeps it for this sink only."""
        return items, blocks

    def metadata_access_prepared(self, prepared, write: bool) -> None:
        """:meth:`metadata_access_many` over a :meth:`prepare_metadata`
        batch."""
        items, blocks = prepared
        self.metadata_access_many(items, write, blocks)

    def stall(self, ns: float) -> None:
        """Charge ``ns`` of controller stall time (retry backoff) to the
        current operation. Counting sinks ignore it; timing sinks extend
        the operation's completion time."""

    def end_op(self) -> None:
        """The current operation finished."""
        if self._op_kind is None:
            raise RuntimeError("end_op without begin_op")
        self._op_kind = None


@dataclass
class RobustnessCounters:
    """Detection/recovery event tallies (the recovery ladder's ledger).

    Owned by the controller, surfaced through ``SimResult.robustness``
    and the fault-campaign report. ``recovered`` counts quarantined
    buckets whose forced rebuild completed; ``transient_recovered``
    counts opens that succeeded after at least one retry.
    """

    transient_faults: int = 0
    retries: int = 0
    transient_recovered: int = 0
    retry_exhausted: int = 0
    auth_failures: int = 0
    integrity_failures: int = 0
    quarantines: int = 0
    rebuilds: int = 0
    recovered: int = 0
    unrecovered: int = 0
    payload_resets: int = 0
    stash_served_reads: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class OpCounters:
    """Access tallies for one operation class."""

    ops: int = 0
    data_reads: int = 0
    data_writes: int = 0
    meta_reads: int = 0
    meta_writes: int = 0
    onchip_accesses: int = 0
    remote_accesses: int = 0

    @property
    def offchip_accesses(self) -> int:
        return self.data_reads + self.data_writes + self.meta_reads + self.meta_writes


class CountingSink(MemorySink):
    """Tally sink: counts per operation class and per tree level.

    A touch outside any operation (e.g. initialization fill) is
    tolerated but flagged: it is counted in ``unattributed_accesses``
    and nowhere else.
    """

    def __init__(self, levels: int) -> None:
        self.levels = levels
        self.by_kind: Dict[OpKind, OpCounters] = {k: OpCounters() for k in OpKind}
        self.data_reads_by_level = np.zeros(levels, dtype=np.int64)
        self.data_writes_by_level = np.zeros(levels, dtype=np.int64)
        self._cur_counters: Optional[OpCounters] = None
        self.unattributed_accesses = 0

    def reset(self) -> None:
        """Zero all counters (e.g. at the end of a warm-up phase)."""
        self.by_kind = {k: OpCounters() for k in OpKind}
        self.data_reads_by_level[:] = 0
        self.data_writes_by_level[:] = 0
        self.unattributed_accesses = 0
        if self._op_kind is not None:
            self._cur_counters = self.by_kind[self._op_kind]

    def begin_op(self, kind: OpKind) -> None:
        super().begin_op(kind)
        c = self.by_kind[kind]
        c.ops += 1
        # Cached so per-access paths skip the enum-keyed dict lookup.
        self._cur_counters = c

    def data_access_many(self, items: Sequence[DataItem], write: bool) -> None:
        c = self._cur_counters
        if c is None:
            self.unattributed_accesses += len(items)
            return
        by_level = self.data_writes_by_level if write else self.data_reads_by_level
        n = 0
        for _bucket, _slot, level, onchip, remote in items:
            if onchip:
                c.onchip_accesses += 1
                continue
            if remote:
                c.remote_accesses += 1
            n += 1
            by_level[level] += 1
        if write:
            c.data_writes += n
        else:
            c.data_reads += n

    def metadata_access_many(
        self, items: Sequence[MetaItem], write: bool, blocks: int = 1
    ) -> None:
        c = self._cur_counters
        if c is None:
            self.unattributed_accesses += len(items)
            return
        n = 0
        for _bucket, _level, onchip in items:
            if onchip:
                c.onchip_accesses += blocks
            else:
                n += blocks
        if write:
            c.meta_writes += n
        else:
            c.meta_reads += n

    def end_op(self) -> None:
        super().end_op()
        self._cur_counters = None

    # ------------------------------------------------------------- queries

    @property
    def total_offchip(self) -> int:
        return sum(c.offchip_accesses for c in self.by_kind.values())

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {
            str(kind): {
                "ops": c.ops,
                "data_reads": c.data_reads,
                "data_writes": c.data_writes,
                "meta_reads": c.meta_reads,
                "meta_writes": c.meta_writes,
                "remote": c.remote_accesses,
                "onchip": c.onchip_accesses,
            }
            for kind, c in self.by_kind.items()
        }


class TeeSink(MemorySink):
    """Fan a controller's access stream out to several sinks."""

    def __init__(self, *sinks: MemorySink) -> None:
        if not sinks:
            raise ValueError("TeeSink needs at least one sink")
        self.sinks = list(sinks)

    def begin_op(self, kind: OpKind) -> None:
        super().begin_op(kind)
        for s in self.sinks:
            s.begin_op(kind)

    def data_access_many(self, items, write):
        for s in self.sinks:
            s.data_access_many(items, write)

    def metadata_access_many(self, items, write, blocks=1):
        for s in self.sinks:
            s.metadata_access_many(items, write, blocks=blocks)

    def stall(self, ns: float) -> None:
        for s in self.sinks:
            s.stall(ns)

    def end_op(self) -> None:
        super().end_op()
        for s in self.sinks:
            s.end_op()
