"""The Ring ORAM controller.

Implements the three protocol operations of Ren et al.'s Ring ORAM as
described in the paper's section III-B, with Bucket Compaction (Cao et
al., the paper's baseline) integrated:

- ``readPath`` (online): metadata pass over the path, then one block
  read per bucket -- the target block from the bucket that holds it, a
  valid dummy from every other bucket. When a bucket's dummies are
  exhausted the read returns a *green* block from the Z' portion (CB
  overlap); a real green block moves to the stash.
- ``evictPath`` (offline): after every ``A`` online accesses, reshuffle
  the path chosen by the reverse-lexicographic order.
- ``earlyReshuffle`` (offline): reshuffle any bucket that has absorbed
  its sustain count of reads.

Background eviction (from CB): while the stash occupancy exceeds the
configured threshold, dummy accesses are issued (they advance the
evictPath schedule and therefore drain the stash).

With AB-ORAM extensions attached (:class:`repro.core.remote
.RemoteAllocator`), a bucket at a DR level owns up to ``r`` additional
*remote* slots rented from dead blocks of its level. They are columns
of the bucket's own row in the :class:`~repro.oram.bucket.BucketStore`,
past its local slots, so every operation here has one body: readPath
draws one slot out of the row and only then asks whether the bytes
live in the bucket or at a rented host; a reshuffle collects the row's
real blocks, ends the rental round and scatters the refill uniformly
over local + remote positions. A remote read (real or dummy) is
therefore indistinguishable from a local one; the only observable
difference is the redirected address -- which is public by design.

Every random choice -- readPath's slot per level, the remap and
background leaves, a reshuffle's scatter positions, ``warm_fill``'s
leaves -- is drawn through the controller's one
:class:`~repro.oram.draws.Draws` (``self.draws``), one call per
operation; ``rng`` is its numpy generator, synced to the draws made so
far (DESIGN.md section 14).

The controller narrates every memory touch to a
:class:`~repro.oram.stats.MemorySink`; accesses to treetop-cached
levels are flagged on-chip.
"""

from __future__ import annotations

from itertools import groupby, islice
from operator import itemgetter
from typing import (
    Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.crypto.auth import AuthenticationError
from repro.crypto.integrity import IntegrityError
from repro.oram import tree as tree_mod
from repro.oram.bucket import BucketStore, DUMMY, ST_DEAD, ST_QUEUED
from repro.oram.config import OramConfig
from repro.oram.datastore import pad_block
from repro.oram.draws import Draws
from repro.oram.metadata import record_blocks
from repro.oram.observer import HOOKS, hears
from repro.oram.position_map import PositionMap
from repro.oram.plb import RecursivePosMap
from repro.oram.recovery import (
    BACKOFF_BASE_NS,
    BACKOFF_FACTOR,
    RobustnessConfig,
    TransientBackendError,
)
from repro.oram.stash import Stash
from repro.oram.stats import (
    CountingSink, MemorySink, OpKind, RobustnessCounters,
)

# Safety valve: background eviction should drain the stash within a few
# evictPath rounds; this many dummy accesses in a single drain means the
# configuration is unsound.
_MAX_BACKGROUND_BURST = 2000

# warm_fill hands its seals to the datastore this many at a time: the
# smallest chunk that builds an L10 store within noise of one batch
# (58 vs 60 ms, 400 ms per slot) while peak RSS stays where the
# per-slot loop leaves it (one 2557-seal batch adds 1.2 MB).
_WARM_FILL_SEAL_CHUNK = 256


# What a sealed-slot open can fail with and the recovery ladder absorbs.
_OPEN_FAILURES = (TransientBackendError, AuthenticationError, IntegrityError)

#: One resident's open, as ``_open_residents`` hands it on: the block,
#: where it sat, and its plaintext or the failure the open raised.
_Opened = Tuple[int, int, int, Union[bytes, Exception]]


class ProtocolError(RuntimeError):
    """An invariant of the Ring ORAM protocol was violated."""


def _scatter_draws(
    draws: Draws, jobs: List[Tuple[int, int, bool]]
) -> List[Optional[List[int]]]:
    """What ``Generator.choice`` of ``n`` with ``size=k, replace=False``
    returns for each ``(n, k, wanted)`` of ``jobs``, drawn in job order;
    ``None`` for a job not ``wanted``.

    numpy's ``choice`` (n <= 10000) is Floyd's algorithm (k draws,
    bounds n-k+1 ... n), then a Fisher-Yates shuffle of the k results
    (k-1 draws, bounds k ... 2); replaying both over the same draws
    leaves results and generator as the calls would
    (``tests/test_rng_identities.py``). Every job's bounds are drawn,
    one call per run of jobs alike in ``wanted``; only the wanted ones
    are replayed, and the others only move the stream.
    """
    out: List[Optional[List[int]]] = []
    for wanted, run in groupby(jobs, key=itemgetter(2)):
        run = list(run)
        bounds: List[int] = []
        for n, k, _ in run:
            bounds += range(n - k + 1, n + 1)
            bounds += range(k, 1, -1)
        if not wanted:
            draws.skip(bounds)
            out += [None] * len(run)
            continue
        drawn = draws.below(bounds)
        at = 0
        for n, k, _ in run:
            picked: List[int] = []
            for j, v in zip(range(n - k, n), drawn[at:at + k]):
                picked.append(j if v in picked else v)
            end = at + 2 * k - 1 if k else at
            for i, r in zip(range(k - 1, 0, -1), drawn[at + k:end]):
                picked[i], picked[r] = picked[r], picked[i]
            out.append(picked)
            at = end
    return out


class RingOram:
    """A functional Ring ORAM instance over one configuration."""

    def __init__(
        self,
        cfg: OramConfig,
        sink: Optional[MemorySink] = None,
        seed: int = 0,
        extensions: Optional[Any] = None,
        observers: Sequence[Any] = (),
        store_data: bool = False,
        datastore: Optional[Any] = None,
        posmap_mode: str = "onchip",
        plb_entries: int = 4096,
        robustness: Optional[RobustnessConfig] = None,
    ) -> None:
        self.cfg = cfg
        self.sink = sink if sink is not None else CountingSink(cfg.levels)
        self.draws = Draws(seed)
        self.store = BucketStore(cfg)
        self.stash = Stash(cfg.stash_capacity)
        self.posmap = PositionMap(cfg.n_real_blocks, cfg.n_leaves, self.draws)
        self.ext = extensions
        self.observers: List[Any] = []
        self._heard: Dict[str, List[Any]] = {hook: [] for hook in HOOKS}
        for obs in observers:
            self.add_observer(obs)
        # Payload handling: `datastore` (an EncryptedTreeStore) routes
        # real byte payloads through the sealed memory image; plain
        # `store_data` keeps a convenience plaintext dict instead.
        self.datastore = datastore
        self._stash_payload: Dict[int, bytes] = {}
        self._data: Optional[Dict[int, Any]] = (
            {} if store_data and datastore is None else None
        )
        if posmap_mode not in ("onchip", "recursive"):
            raise ValueError(f"unknown posmap_mode {posmap_mode!r}")
        self.posmap_model: Optional[RecursivePosMap] = (
            RecursivePosMap(cfg.n_real_blocks, plb_entries=plb_entries)
            if posmap_mode == "recursive" else None
        )
        # Robustness: with a policy AND a datastore attached, crypto
        # failures are absorbed by the recovery ladder instead of
        # propagating (the historical behaviour, kept for plain runs).
        self.robustness = robustness
        self.robust = RobustnessCounters()
        self._recovery_active = robustness is not None and datastore is not None
        self._verify_paths = bool(
            self._recovery_active
            and robustness.integrity
            and getattr(datastore, "integrity", None) is not None
        )
        self._quarantined: Dict[int, None] = {}   # insertion-ordered set
        self._rebuilding: Optional[int] = None
        # Serving-layer hook: with deferral on, quarantined buckets are
        # NOT rebuilt in the next access's maintenance window -- they
        # accumulate until the driver calls ``flush_recovery()``. This
        # is what lets a serving layer run a *degraded mode* (answer
        # from the stash, journal writes) while scheduling the rebuild
        # on its own clock. Default off: recovery behaviour (and every
        # committed fault-campaign number) is unchanged.
        self.defer_rebuilds = False
        self.evict_counter = 0
        self._z_real_by_level = [g.z_real for g in cfg.geometry]
        # A reshuffle reads Z' slots of a bucket, reported against slot 0.
        self._read_burst = [(0,) * z for z in self._z_real_by_level]
        # Levels whose reshuffles rent remote slots.
        self._rents = [extensions is not None and g.remote_extension > 0
                       for g in cfg.geometry]
        # leaf -> (bucket list, metadata batch prepared by the sink):
        # immutable per-path descriptors rebuilt constantly by readPath
        # otherwise. Bounded by n_leaves; emptied when the sink changes.
        self._path_cache: Dict[int, Tuple[List[int], Any]] = {}
        self._path_sink: Optional[MemorySink] = None
        self.online_accesses = 0       # real + stash-hit accesses (paper's X axis)
        self.accesses_since_evict = 0
        self.background_accesses = 0
        if self.ext is not None:
            self.ext.bind(self)
        self.metadata_blocks = record_blocks(cfg)

    @property
    def rng(self) -> np.random.Generator:
        """The protocol generator, synced to the draws made so far."""
        return self.draws.generator

    # ----------------------------------------------------------- public API

    def access(self, block: int, write: bool = False, value: Any = None) -> Any:
        """Service one user request for ``block``; returns its payload.

        This is the full online protocol step: position-map lookup,
        readPath, remap, plus any maintenance the access triggers
        (earlyReshuffles, the scheduled evictPath, background
        eviction).
        """
        if not 0 <= block < self.cfg.n_real_blocks:
            raise ValueError(
                f"block {block} out of range [0, {self.cfg.n_real_blocks})"
            )
        if write and self.datastore is not None:
            # Validated before anything moves: a refused payload must
            # leave no half-run access behind.
            value = pad_block(value, self.cfg.block_bytes)
        if self.posmap_model is not None:
            # Each PLB miss fetches one position-map block: a full,
            # protocol-complete ORAM access of its own (Freecursive).
            for _ in range(self.posmap_model.access(block)):
                pm_leaf = self.draws.one(self.cfg.n_leaves)
                self._tick(self._read_path(pm_leaf, target=None,
                                           kind=OpKind.POSMAP))
        leaf = self.posmap.lookup(block)
        self.online_accesses += 1
        for obs in self._heard["on_access_start"]:
            obs.on_access_start(self.online_accesses)
        pending = self._read_path(leaf, target=block, kind=OpKind.READ_PATH)
        # Remap to a fresh path; the block stays in the stash until an
        # eviction writes it back.
        new_leaf = self.posmap.remap(block)
        if block in self.stash:
            self.stash.remap(block, new_leaf)
        else:
            # First touch of a block that was never written to the tree.
            self.stash.add(block, new_leaf)
        if self.datastore is not None:
            if write:
                self._stash_payload[block] = value
            result = self._stash_payload.get(block)
        else:
            if write and self._data is not None:
                self._data[block] = value
            result = self._data.get(block) if self._data is not None else None
        self._tick(pending)
        self._background_evict()
        return result

    def add_observer(self, obs: Any) -> None:
        """Attach ``obs`` (after any already attached).

        Records per hook whether ``obs`` overrides it: every emission
        site iterates only the observers that do, so an event nobody
        listens to costs neither the call nor the work of building its
        arguments.
        """
        self.observers.append(obs)
        for hook in HOOKS:
            if hears(obs, hook):
                self._heard[hook].append(obs)

    def read(self, block: int) -> Any:
        return self.access(block, write=False)

    def write(self, block: int, value: Any) -> None:
        self.access(block, write=True, value=value)

    @property
    def quarantine_pending(self) -> int:
        """Quarantined buckets awaiting rebuild (nonzero only while
        ``defer_rebuilds`` holds them back for the serving layer)."""
        return len(self._quarantined)

    def peek_payload(self, block: int) -> Optional[Any]:
        """A block's payload iff it is readable *without* an access.

        On the sealed data path that means the block's bytes are
        on-chip right now (captured into the stash payload cache and
        not yet written back); on the plaintext ``store_data`` path
        every stored payload qualifies. Returns ``None`` when serving
        the block would require an oblivious access -- the exact
        boundary of what a degraded-mode read may answer.
        """
        if not 0 <= block < self.cfg.n_real_blocks:
            raise ValueError(
                f"block {block} out of range [0, {self.cfg.n_real_blocks})"
            )
        if self.datastore is not None:
            return self._stash_payload.get(block)
        if self._data is not None:
            return self._data.get(block)
        return None

    def preload_value(self, block: int, value: Any) -> None:
        """Seed a block's payload without an oblivious access.

        Bulk-loading hook for drivers that populate a store before a
        measured run (the tree placement itself is ``warm_fill``'s
        job). Only the plaintext ``store_data`` payload path supports
        it -- the sealed path would have to locate and re-seal the
        block's slot, which is exactly the oblivious access this hook
        exists to avoid.
        """
        if not 0 <= block < self.cfg.n_real_blocks:
            raise ValueError(
                f"block {block} out of range [0, {self.cfg.n_real_blocks})"
            )
        if self._data is None:
            raise ProtocolError(
                "preload_value requires the plaintext store_data payload path"
            )
        self._data[block] = value

    def warm_fill(self) -> int:
        """Pre-place every block in the tree (random leaf, deepest fit).

        Mimics a long warm-up run: blocks sit as close to their leaf as
        capacity allows. Returns how many blocks overflowed to the
        stash (should be ~0 at 50% utilization).
        """
        cfg = self.cfg
        overflow = 0
        order = self.rng.permutation(cfg.n_real_blocks).tolist()
        # On a fresh store every slot is a valid dummy and fills are
        # sequential, so slot ``real_cnt[b]`` is always the bucket's
        # first valid dummy -- no per-placement slot scan needed.
        real_cnt = [0] * cfg.n_buckets
        z_real = [g.z_real for g in cfg.geometry]
        levels = cfg.levels
        n_leaves = cfg.n_leaves
        one = self.draws.one
        set_slot = self.store.set_slot
        # Sealed path: placements are sealed in placement order, a
        # bounded chunk at a time (a whole tree's seal requests at once
        # would grow with the tree).
        seal_items: List[Tuple[int, int, Optional[bytes]]] = []
        blank = bytes(cfg.block_bytes)
        for block in order:
            leaf = one(n_leaves)
            self.posmap.set_leaf(block, leaf)
            placed = False
            for lv in range(levels - 1, -1, -1):
                b = (1 << lv) - 1 + (leaf >> (levels - 1 - lv))
                slot = real_cnt[b]
                if slot >= z_real[lv]:
                    continue
                set_slot(b, slot, block)
                if self.datastore is not None:
                    seal_items.append((b, slot, blank))
                    if len(seal_items) == _WARM_FILL_SEAL_CHUNK:
                        self.datastore.seal_many(seal_items)
                        seal_items = []
                real_cnt[b] = slot + 1
                placed = True
                break
            if not placed:
                self.stash.add(block, leaf)
                overflow += 1
        if seal_items:
            self.datastore.seal_many(seal_items)
        return overflow

    # -------------------------------------------------------------- readPath

    def _read_path(
        self, leaf: int, target: Optional[int], kind: OpKind
    ) -> List[int]:
        """One Ring ORAM path read. Returns buckets now due a reshuffle.

        The metadata work is batched: one whole-path snapshot of slot
        contents (local slots and rented ones alike, one row slice per
        bucket) answers every per-bucket question with C-level list
        counts and bounded searches, so the cost per access is
        O(levels) list/sink work. The block pass below is the only
        one: per level one slot of the row, then one tail whether the
        bytes are local or at a rented host.
        """
        cfg = self.cfg
        sink = self.sink
        store = self.store
        ext = self.ext
        treetop = cfg.treetop_levels
        # Per-leaf path descriptors (bucket list, metadata batch) are
        # immutable once built -- cache them across accesses. The batch
        # is in the sink's own form, so a new sink starts a new cache.
        if self._path_sink is not sink:
            self._path_cache = {}
            self._path_sink = sink
        cached = self._path_cache.get(leaf)
        if cached is None:
            buckets = tree_mod.path_buckets(leaf, cfg.levels)
            # A path holds exactly one bucket per level, root first, so
            # ``buckets[i]`` sits at level ``i``.
            cached = (buckets, sink.prepare_metadata(
                [(b, lv, lv < treetop) for lv, b in enumerate(buckets)],
                self.metadata_blocks))
            self._path_cache[leaf] = cached
        buckets, meta = cached
        sink.begin_op(kind)
        # -- metadata pass (read now, write back at the end of the access)
        sink.metadata_access_prepared(meta, False)
        if self._verify_paths:
            self._verify_path_integrity(leaf, buckets)
        if ext is not None:
            # gatherDEADs visits only the levels that own a DeadQ.
            ext.gather_path(buckets)
        # -- whole-path snapshot, taken after gather() so DeadQ status
        # flips are visible: one row per bucket, its local slots then
        # the slots it rents. Path buckets are distinct and each is read
        # exactly once below, so the snapshot stays valid while slots
        # are consumed; remote hosts are never path buckets (a renter's
        # host sits at the renter's own level, different position).
        rows = store.path_slot_views(buckets)
        z_max = store.z_max
        # -- locate the target (the metadata identifies its bucket + slot)
        target_bucket = -1
        target_slot = -1
        if target is not None:
            for lv, row in enumerate(rows):
                if target in row:
                    target_bucket = buckets[lv]
                    target_slot = row.index(target)
                    break
        # -- valid dummies per bucket: a row's candidates are its DUMMY
        # slots in row order, local slots ascending and then rented ones
        # in rental order. A slot holding DUMMY is always REFRESHED
        # (consumed, queued and rented-out slots hold CONSUMED), so the
        # content test alone suffices.
        dcounts = [row.count(DUMMY) for row in rows]
        # -- green candidates (valid real slots), only for a bucket that
        # turns up dry (most accesses find a dummy at every level). A
        # slot with real content is necessarily REFRESHED, so the
        # content test alone suffices.
        greens: Dict[int, List[int]] = {}
        # -- the snapshot fixes what every level reads: the target's
        # slot, else a uniform draw over its valid dummies, else (dry
        # bucket) over its green blocks, which spill to the stash (CB,
        # paper section III-C). One call draws every bound in order.
        bounds: List[int] = []
        for lv, b in enumerate(buckets):
            if b == target_bucket:
                continue
            if dcounts[lv]:
                bounds.append(dcounts[lv])
                continue
            green = [s for s, v in enumerate(rows[lv]) if v >= 0]
            if not green:
                raise ProtocolError(
                    f"bucket {b} (level {lv}) has no readable slot: "
                    f"count={store.count[b]} sustain={store.sustain[b]}"
                )
            greens[lv] = green
            bounds.append(len(green))
        draws = iter(self.draws.below(bounds))
        # -- block pass: one read per bucket. Sink touches are collected
        # and issued as one batch (same order, one phase transition).
        # ``reads`` feeds only on_read_path, so unless someone hears it
        # the per-level tuples are never built (``None`` disables
        # tracking).
        path_obs = self._heard["on_read_path"]
        reads: Optional[List[Tuple[int, int, int, bool]]] = (
            [] if path_obs else None
        )
        sink_items: List[Tuple[int, int, int, bool, bool]] = []
        # Sealed path: the real blocks this read returns (the target,
        # every green block) as ``(block, bucket, slot)`` in level
        # order, opened as one batch once the block pass has chosen
        # them -- nothing on a path read seals, so the bytes are the
        # ones a per-level open would see.
        opens: Optional[List[Tuple[int, int, int]]] = (
            None if self.datastore is None else []
        )
        # Local consumes are deferred into one batched write-back; each
        # bucket appears at most once, nothing in the loop reads the
        # affected state (observers only get the coordinates,
        # consume_remote touches the renter's count and a host off the
        # path), and the batch lands before the ``due`` scan below.
        cons_b: List[int] = []
        cons_s: List[int] = []
        dead_obs = self._heard["on_slot_dead"]
        for lv, b in enumerate(buckets):
            # One slot of the bucket's row, local and rented candidates
            # alike.
            if b == target_bucket:
                slot = target_slot
                blockval = target
            elif dcounts[lv]:
                # The k-th DUMMY of the row; every search stays in it.
                row = rows[lv]
                slot = row.index(DUMMY)
                for _ in range(next(draws)):
                    slot = row.index(DUMMY, slot + 1)
                blockval = DUMMY
            else:
                slot = greens[lv][next(draws)]
                blockval = rows[lv][slot]
            # Where the bytes live: the bucket's own slot, or the host
            # of a rented column (same level, never on this path).
            remote = slot >= z_max
            if remote:
                at, slot = ext.consume_remote(b, slot - z_max)
            else:
                at = b
                cons_b.append(b)
                cons_s.append(slot)
            for obs in dead_obs:
                obs.on_slot_dead(at, slot, lv)
            sink_items.append((at, slot, lv, lv < treetop, remote))
            if reads is not None:
                reads.append((b, slot, lv, remote))
            if blockval >= 0:
                if opens is not None:
                    opens.append((blockval, at, slot))
                self.stash.add(blockval, self.posmap.peek(blockval))
        if cons_b:
            store.consume_path(cons_b, cons_s)
        if opens:
            # Admitted before the block reads are issued, where the
            # per-level opens sat: a retry stall extends the same
            # phase, quarantines queue in level order.
            for one in self._open_residents(opens):
                self._admit_payload(*one)
        sink.data_access_many(sink_items, write=False)
        # -- metadata write-back
        sink.metadata_access_prepared(meta, True)
        sink.end_op()
        for obs in path_obs:
            obs.on_read_path(leaf, reads, target_bucket)
        count = store.count
        sustain = store.sustain
        return [b for b in buckets if count[b] >= sustain[b]]

    # ---------------------------------------------------------- maintenance

    def _tick(self, pending: List[int]) -> None:
        """What follows every path read -- the main access's, a
        position-map fetch's, a background dummy read's.

        The earlyReshuffles the read made due, then the quarantine
        rebuilds (forced reshuffles ride the same window: they must
        never nest inside an in-flight operation), then one count on
        the evictPath schedule and, every ``A`` counts, the evictPath
        of the next path in reverse-lexicographic order.
        """
        for b in pending:
            if self.store.needs_reshuffle(b):
                self._reshuffle((b,), OpKind.EARLY_RESHUFFLE)
        if self._quarantined and not self.defer_rebuilds:
            self._rebuild_quarantined()
        self.accesses_since_evict += 1
        if self.accesses_since_evict >= self.cfg.evict_rate:
            self.accesses_since_evict = 0
            levels = self.cfg.levels
            leaf = tree_mod.reverse_lexicographic_leaf(
                self.evict_counter, levels
            )
            self.evict_counter += 1
            self._reshuffle(
                tree_mod.path_buckets(leaf, levels), OpKind.EVICT_PATH
            )

    def _open_residents(
        self, residents: List[Tuple[int, int, int]]
    ) -> Iterator[_Opened]:
        """One datastore open batch over ``(block, bucket, slot)`` items,
        each handed on with its outcome.

        Lazy when the datastore's ``open_many`` is (``FaultyMemory``):
        an outcome is produced no earlier than the first outcome of its
        fault-free run is asked for. The consumer may put datastore
        calls of its own between two outcomes only as retries of one
        that came back a ``TransientBackendError``; the wrapper plans
        the next run after them, so every op keeps its index.
        """
        where = [(bucket, slot) for _, bucket, slot in residents]
        return (
            resident + (outcome,)
            for resident, outcome in zip(
                residents, self.datastore.open_many(where)
            )
        )

    def flush_recovery(self) -> None:
        """Drain any still-quarantined buckets outside an access.

        Corruption detected during the *last* maintenance window of a
        run (e.g. inside its evictPath) has no later access to ride;
        drivers call this once at end of run so every detected fault is
        either rebuilt or counted unrecovered, never left pending.
        """
        if self._quarantined:
            self._rebuild_quarantined()

    def _quarantine(self, bucket: int) -> None:
        """Mark a bucket corrupted; its rebuild runs at next maintenance."""
        if self._rebuilding == bucket:
            # Failures while rebuilding this very bucket are expected
            # (its residents may be unrecoverable); don't re-queue it.
            return
        if self.robustness is None:
            self.robust.unrecovered += 1
            return
        if bucket not in self._quarantined:
            self._quarantined[bucket] = None
            self.robust.quarantines += 1

    def _rebuild_quarantined(self) -> None:
        """Force-reshuffle every quarantined bucket (recovery ladder
        step 2). Rebuilding reseals all of the bucket's slots, which
        refreshes MACs and re-derives the Merkle path up to a fresh
        on-chip root pin."""
        while self._quarantined:
            b = min(self._quarantined)
            del self._quarantined[b]
            self._rebuilding = b
            try:
                self._reshuffle((b,), OpKind.RECOVERY)
            finally:
                self._rebuilding = None
            self.robust.rebuilds += 1
            self.robust.recovered += 1

    def _reshuffle(self, buckets: Sequence[int], kind: OpKind) -> None:
        """The one reshuffle (offline): evictPath over one whole path,
        earlyReshuffle and the quarantine rebuild over one saturated (or
        quarantined) bucket.

        ``buckets`` run root side first. Read phase in that order: per
        bucket its metadata, Z' reads (valid real blocks padded with
        dummies -- the read count, not the real count, is what memory
        sees), the end of its rental round; the reals of all buckets
        then enter the stash as one batch. Write phase in reverse, so
        the classic deepest-placement greedy of evictPath emerges from
        refilling leaf to root, with every decision fixed before the
        first bucket is written (DESIGN.md section 14).
        """
        store = self.store
        sink = self.sink
        ext = self.ext
        z_real = self._z_real_by_level
        rents = self._rents
        treetop = self.cfg.treetop_levels
        mblocks = self.metadata_blocks
        sink.begin_op(kind)
        plan = [(b, store.level(b)) for b in buckets]
        # The residents of all rows, row-major: bucket order, local
        # slots ascending, then rented ones in rental order. Read before
        # ``reclaim`` clears the rented columns.
        rows = store.path_slot_views(buckets)
        blocks = [v for row in rows for v in row if v >= 0]
        shares = [0] * len(plan)
        opened: Iterator[_Opened] = iter(())
        if self.datastore is not None:
            # Every resident is known before the first bucket is read,
            # so the whole read phase is one open batch. Its outcomes
            # are consumed bucket by bucket below, where scalar opens
            # would sit, so a retry stall or a quarantine lands at the
            # same point of the operation. A rented slot is opened at
            # its host.
            z_max = store.z_max
            residents = []
            for i, (b, row) in enumerate(zip(buckets, rows)):
                for col, block in enumerate(row):
                    if block < 0:
                        continue
                    residents.append((block, b, col) if col < z_max else (
                        (block,)
                        + ext.hosts[b * ext.r_max + col - z_max]))
                    shares[i] += 1
            opened = self._open_residents(residents)
        dead_obs = self._heard["on_slot_dead"]
        # Reported bucket by bucket, not as one batch: each bucket's
        # record is read right before its blocks and written right after
        # them, and that issue order is timing. The Z' reads are Z'
        # ordinary requests, all reported against slot 0.
        burst = self._read_burst
        for (b, lv), n_share in zip(plan, shares):
            sink.bucket_access(b, lv, lv < treetop, False, burst[lv],
                               (), mblocks)
            for one in islice(opened, n_share):
                self._admit_payload(*one)
            if ext is not None and ext.n_active[b]:
                for hb, hs in ext.reclaim(b):
                    # The released host slot holds stale data again.
                    for obs in dead_obs:
                        obs.on_slot_dead(hb, hs, lv)
        if blocks:
            self.stash.add_many(blocks, self.posmap.peek_many(blocks).tolist())
        # Rentals, leaf side first. Each level's DeadQ is popped only by
        # its own path bucket and a refill touches only its own level,
        # so renting every bucket first pops what renting each right
        # before its refill would. Usable = not rented out (O(1) from
        # the IN_USE tally; ``refresh`` recovers the slot indices).
        refills = []    # (bucket, level, usable, granted, hosts)
        caps = []
        for b, lv in reversed(plan):
            n_usable = store.z_phys(b) - store.in_use_count[b]
            granted, hosts = ext.acquire(b, lv) if rents[lv] else (0, [])
            refills.append((b, lv, n_usable, granted, hosts))
            caps.append(min(z_real[lv], n_usable + granted))
        # Path membership is the whole test: refilling leaf to root, a
        # block eligible for a deeper bucket was already taken by it.
        # The deepest bucket names the leaf (any leaf under a lone
        # bucket will do).
        deepest, deepest_lv = plan[-1]
        height = self.cfg.levels - 1 - deepest_lv
        picks = self.stash.pick_path(
            (deepest + 1 - (1 << deepest_lv)) << height, caps, height
        )
        # Scatter each bucket's picks uniformly across its local +
        # remote positions so a remote read is indistinguishable from a
        # local one. Drawn whenever blocks are chosen -- even with no
        # remote hosts -- so the RNG stream is the same for every scheme;
        # only a bucket with a rented host reads its positions.
        scatter = _scatter_draws(self.draws, [
            (n_usable + len(hosts), len(chosen), bool(hosts))
            for (_, _, n_usable, _, hosts), chosen in zip(refills, picks)
        ])
        # The sealed writes of all buckets go to the datastore as one
        # batch.
        seal_items: List[Tuple[int, int, Optional[bytes]]] = []
        for (b, lv, n_usable, granted, hosts), chosen, positions in zip(
            refills, picks, scatter
        ):
            self._refill_bucket(b, lv, n_usable, granted, hosts, chosen,
                                positions, seal_items)
        if seal_items:
            self.datastore.seal_many(seal_items)
        sink.end_op()

    def _refill_bucket(
        self, b: int, lv: int, n_usable: int, granted: int,
        hosts: List[Tuple[int, int]], chosen: List[int],
        positions: Optional[List[int]],
        seal_batch: List[Tuple[int, int, Optional[bytes]]],
    ) -> None:
        """A reshuffle's write phase for bucket ``b`` as ``_reshuffle``
        fixed it (``granted`` rented columns at ``hosts``; ``chosen`` at
        ``positions`` among the ``n_usable`` local then the rented
        slots, ``None`` without hosts): rewrites every usable and
        rented slot, reports the bucket's writes and, on the sealed path,
        appends the slots to seal to ``seal_batch``, the reshuffle's
        one seal batch.
        """
        store = self.store
        base = b * store.width
        reclaimed_obs = self._heard["on_slot_reclaimed"]
        reclaimed_dead = None
        if reclaimed_obs:
            # The dead slots this rewrite reclaims, read before
            # ``refresh`` turns them REFRESHED (DEAD and QUEUED slots
            # are never rented out, so all of them are usable).
            st = store.status
            reclaimed_dead = [
                s for s in range(store.z_phys(b))
                if st[base + s] in (ST_DEAD, ST_QUEUED)
            ]
        # A host sits at its renter's level.
        for obs in reclaimed_obs:
            for hb, hs in hosts:
                obs.on_slot_reclaimed(hb, hs, lv, "remote")
        local_reals = chosen
        remote_contents = [DUMMY] * len(hosts)
        if chosen:
            if hosts:
                local_reals = []
                for blk, pos in zip(chosen, positions):
                    if pos < n_usable:
                        local_reals.append(blk)
                    else:
                        remote_contents[pos - n_usable] = blk
            self.stash.remove_many(chosen)
        written = store.refresh(b, local_reals, granted_extension=granted)
        if reclaimed_dead is not None:
            for obs in reclaimed_obs:
                for slot in reclaimed_dead:
                    obs.on_slot_reclaimed(b, slot, lv, "reshuffle")
        if hosts:
            self.ext.write_remote_all(b, remote_contents)
        if self.datastore is not None:
            # Payload path: locals then remote hosts, the per-slot
            # sequence scalar seals would follow, so versions,
            # dummy-filler draws and Merkle updates are bit-identical.
            pop_payload = self._stash_payload.pop
            blank = bytes(self.cfg.block_bytes)
            where = [(b, slot) for slot in written] + hosts
            table = store.slots
            contents = [table[base + s] for s in written] + remote_contents
            seal_batch += [
                (at, slot, pop_payload(content, blank) if content >= 0
                 else None)
                for (at, slot), content in zip(where, contents)
            ]
        # One sink call for the bucket: local slots, then remote hosts
        # (one DRAM write phase, so they arrive together), then the
        # record.
        self.sink.bucket_access(b, lv, lv < self.cfg.treetop_levels, True,
                                written, hosts, self.metadata_blocks)

    def _background_evict(self) -> None:
        """CB background eviction: dummy accesses until the stash drains."""
        cfg = self.cfg
        burst = 0
        while self.stash.occupancy > cfg.background_evict_threshold:
            burst += 1
            if burst > _MAX_BACKGROUND_BURST:
                raise ProtocolError(
                    f"background eviction cannot drain the stash "
                    f"(occupancy {self.stash.occupancy})"
                )
            self.background_accesses += 1
            leaf = self.draws.one(cfg.n_leaves)
            self._tick(self._read_path(leaf, target=None,
                                       kind=OpKind.BACKGROUND))

    # ------------------------------------------------------------ internals

    def _try_open(self, bucket: int, slot: int) -> Union[bytes, Exception]:
        """One scalar open, its failure returned the way a batch does."""
        try:
            return self.datastore.open_slot(bucket, slot)
        except _OPEN_FAILURES as exc:
            return exc

    def _admit_payload(
        self, block: int, bucket: int, slot: int,
        outcome: Union[bytes, Exception],
    ) -> None:
        """Take one opened slot's outcome into the stash payloads.

        Without a robustness policy, crypto failures propagate (tamper
        experiments rely on that). With one, the recovery ladder runs:
        retries for transient faults, quarantine for corruption, then a
        stash-served read or -- the last rung -- a zeroed payload. A
        plaintext skips the ladder, which would hand it back untouched.
        """
        if type(outcome) is bytes:
            self._stash_payload[block] = outcome
            return
        if not self._recovery_active:
            if isinstance(outcome, Exception):
                raise outcome
            self._stash_payload[block] = outcome
            return
        payload = self._recover_open(bucket, slot, outcome)
        if payload is None:
            if block in self._stash_payload:
                # The stash already holds this block's bytes (it was
                # read or written earlier); serve those instead.
                self.robust.stash_served_reads += 1
                return
            payload = bytes(self.cfg.block_bytes)
            self.robust.payload_resets += 1
        self._stash_payload[block] = payload

    def _recover_open(
        self, bucket: int, slot: int, outcome: Union[bytes, Exception]
    ) -> Optional[bytes]:
        """Run one slot's first open ``outcome`` through the recovery
        ladder, retrying transient failures with scalar opens.

        Returns the plaintext, or ``None`` when the slot is lost to
        persistent corruption (the bucket is then quarantined).
        """
        rc = self.robust
        rcfg = self.robustness
        attempts = 0
        while isinstance(outcome, TransientBackendError):
            rc.transient_faults += 1
            if attempts >= rcfg.retry_budget:
                rc.retry_exhausted += 1
                self._quarantine(bucket)
                return None
            attempts += 1
            rc.retries += 1
            self.sink.stall(BACKOFF_BASE_NS * BACKOFF_FACTOR ** (attempts - 1))
            outcome = self._try_open(bucket, slot)
        if isinstance(outcome, AuthenticationError):
            rc.auth_failures += 1
            self._quarantine(bucket)
            return None
        if isinstance(outcome, IntegrityError):
            rc.integrity_failures += 1
            self._quarantine(
                outcome.bucket if outcome.bucket is not None else bucket
            )
            return None
        if attempts:
            rc.transient_recovered += 1
        return outcome

    def _verify_path_integrity(self, leaf: int, buckets: Sequence[int]) -> None:
        """Verify the fetched path's hash chain (recovery ladder entry).

        A localized mismatch quarantines the culprit bucket; a root-only
        mismatch (consistent-rehash replay) quarantines the path's leaf
        bucket, whose rebuild re-derives and re-pins the root.
        """
        try:
            self.datastore.verify_path(leaf)
        except IntegrityError as exc:
            self.robust.integrity_failures += 1
            self._quarantine(exc.bucket if exc.bucket is not None else buckets[-1])

    # ------------------------------------------------------------- checking

    def check_invariants(self) -> None:
        """Verify global protocol invariants (test hook).

        Every mapped block lives in exactly one place (the stash or
        one slot, local or rented, of one bucket row); every
        tree-resident block's bucket lies on the path of its mapped
        leaf; no bucket holds more than Z' real blocks; the store's
        status tallies and, with an allocator attached, rental
        ownership and DeadQ validity hold (see
        ``BucketStore.check_tallies`` and
        ``RemoteAllocator.check_invariants``).
        """
        cfg = self.cfg
        self.store.check_tallies()
        if self.ext is not None:
            self.ext.check_invariants()
        seen: Dict[int, str] = {}
        for blk, _leaf in self.stash.blocks():
            seen[blk] = "stash"
        rows = self.store.table("slots")
        for b, s in np.argwhere(rows >= 0):
            blk = int(rows[b, s])
            if blk in seen:
                raise AssertionError(
                    f"block {blk} duplicated: {seen[blk]} and bucket {int(b)}"
                )
            seen[blk] = f"bucket {int(b)}"
            leaf = self.posmap.peek(blk)
            if leaf < 0:
                raise AssertionError(f"resident block {blk} unmapped")
            if not tree_mod.bucket_on_path(int(b), leaf, cfg.levels):
                raise AssertionError(
                    f"block {blk} in bucket {int(b)} off its path (leaf {leaf})"
                )
        reals_per_bucket = (rows >= 0).sum(axis=1)
        z_real_per_bucket = np.array(
            [g.z_real for g in cfg.geometry], dtype=np.int64
        )[self.store.level_of_bucket]
        over = np.nonzero(reals_per_bucket > z_real_per_bucket)[0]
        if over.size:
            b = int(over[0])
            raise AssertionError(
                f"bucket {b} holds {int(reals_per_bucket[b])} reals "
                f"> Z'={int(z_real_per_bucket[b])}"
            )
        mapped = set(int(x) for x in self.posmap.mapped_blocks())
        missing = mapped.difference(seen)
        if missing:
            raise AssertionError(f"mapped blocks lost: {sorted(missing)[:5]}...")
