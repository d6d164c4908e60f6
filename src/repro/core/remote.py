"""Remote allocation: AB-ORAM's extra level of address mapping.

A bucket at a DR level is physically allocated with a reduced ``S`` and,
at every reshuffle, tries to *extend* it back by renting
``remote_extension`` dead slots from its level's DeadQ (strategy (2) of
the paper's section V-C1). The rented slots become extra logical slots
of the renting bucket: its reshuffle scatters real blocks and dummies
uniformly across local + remote positions, so a readPath redirected to
a remote address is indistinguishable from any other read (this is what
keeps the paper's Fig. 7 attacker at exactly 1/L -- if remote slots
only ever held dummies, the cleartext mapping would let an attacker
exclude them from guessing).

Lifecycle of a rented slot:

1. some bucket's slot dies (a readPath consumes it) -> status DEAD;
2. ``gather_path`` sees it during a later readPath's metadata pass
   and queues it in its level's DeadQ -> status QUEUED;
3. a reshuffling bucket rents it (``acquire``) -> status IN_USE; the
   renter writes fresh content (real block or dummy) to the host
   address (``write_remote_all``). The *logical* content sits in the
   renter's row -- the host bucket's own slot keeps showing CONSUMED so
   host-side scans never touch the rented slot;
4. either a readPath of the renter consumes the remote slot
   (``consume_remote``: it turns DEAD again and may be gathered anew),
   or the renter's next reshuffle returns it unconsumed to the DeadQ
   (``reclaim`` -> QUEUED).

Extension is all-or-nothing per bucket ("dynamicS is extended to S+2
only for the buckets that allocate their two logical tree blocks in
reclaimed dead blocks"); the grant/attempt ratio is the paper's Fig. 14
metric.

Rental bookkeeping is dense, one row per bucket, because renting is
the normal state of a DR-level bucket, not the exception: at the end of
an ``ab`` L12 run 86% of the DR-level buckets hold a rental and a third
of every readPath's buckets have one. The *content* of bucket ``b``'s
``i``-th rented slot is column ``z_max + i`` of ``b``'s own row in the
:class:`~repro.oram.bucket.BucketStore` (block id, ``DUMMY``, or
``UNALLOCATED`` while nothing is rented there), so every scan the
controller runs over a bucket's slots covers local and rented ones
alike. This module keeps only *where the bytes live*: ``host_bucket`` /
``host_slot``, two ``(n_buckets, r_max)`` arrays (the paper's Table I
``remoteAddr`` / ``remoteInd`` fields), valid wherever the column is
rented, and ``n_active``, how many columns each bucket rents. A round's
columns are filled from 0 in DeadQ pop order and cleared in place as
they are consumed, so ascending column order is rental order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dead_queue import DeadQueue, DeadQueueSet
from repro.oram.bucket import (
    CONSUMED,
    DUMMY,
    ST_DEAD,
    ST_IN_USE,
    ST_QUEUED,
    UNALLOCATED,
    BucketStore,
)
from repro.oram.config import OramConfig


class RemoteAllocator:
    """The AB-ORAM extension object plugged into a RingOram controller."""

    def __init__(self, cfg: OramConfig) -> None:
        self.cfg = cfg
        self.queues = DeadQueueSet(cfg.deadq_levels, cfg.deadq_capacity)
        #: (level, queue) pairs for the levels with a DeadQ, ascending
        #: -- the only levels gather_path visits (gathering on any
        #: other level is a guaranteed no-op).
        self._tracked_queues = [
            (lv, self.queues.get(lv)) for lv in self.queues.tracked_levels()
        ]
        r_max = max(g.remote_extension for g in cfg.geometry)
        #: Physical (bucket, slot) behind rented column ``i`` of each
        #: bucket; meaningful only while that column is rented.
        self.host_bucket = np.full((cfg.n_buckets, r_max), -1, dtype=np.int64)
        self.host_slot = np.full((cfg.n_buckets, r_max), -1, dtype=np.int64)
        #: Rented columns per bucket (a plain list: O(1) unboxed reads).
        self.n_active: List[int] = [0] * cfg.n_buckets
        self._store: Optional[BucketStore] = None
        self.extension_attempts = 0
        self.extension_grants = 0
        self.remote_reads = 0
        self.remote_real_reads = 0
        self.reclaimed_slots = 0

    # ------------------------------------------------------------- binding

    def bind(self, controller) -> None:
        """Attach to a RingOram controller (called by its constructor)."""
        self._store = controller.store

    @property
    def store(self) -> BucketStore:
        if self._store is None:
            raise RuntimeError("RemoteAllocator not bound to a controller")
        return self._store

    # -------------------------------------------------------------- gather

    def gather_path(self, buckets: Sequence[int]) -> int:
        """gatherDEADs over one whole path (``buckets[lv]`` at level lv).

        Visits only the levels that have a DeadQ; untracked levels
        cannot queue anything, so skipping them is behaviour-neutral,
        as is skipping buckets with no DEAD slot (O(1) tally check). A
        bucket always keeps at least one non-ALLOCATED slot so it can
        serve a readPath even when no extension is granted: a bucket
        queues its first ``min(dead, Z - 1 - allocated, space)`` DEAD
        slots, ascending. The amounts come from the tallies, so the
        path costs one status fetch, then per queued slot one
        generation read and one status store. Returns how many slots
        were queued.
        """
        store = self.store
        dead_count = store.dead_count
        todo: List[Tuple[DeadQueue, int, int]] = []     # (queue, bucket, n)
        for lv, queue in self._tracked_queues:
            b = buckets[lv]
            if dead_count[b]:
                allocated = store.queued_count[b] + store.in_use_count[b]
                n = min(dead_count[b], store.z_phys(b) - 1 - allocated,
                        queue.space)
                if n > 0:
                    todo.append((queue, b, n))
        if not todo:
            return 0
        # Row-major nonzero: per bucket one ascending run of exactly
        # ``dead_count[b]`` columns (no column past a bucket's local
        # slots is ever DEAD).
        dead_cols = (
            store.status[[b for _, b, _ in todo]] == ST_DEAD
        ).nonzero()[1].tolist()
        start = 0
        for queue, b, n in todo:
            slots = dead_cols[start:start + n]
            start += dead_count[b]
            queue.push_many(b, slots,
                            [store.generation.item(b, s) for s in slots])
            for s in slots:
                store.status[b, s] = ST_QUEUED
            dead_count[b] -= n
            store.queued_count[b] += n
        return sum(n for _, _, n in todo)

    # ---------------------------------------------------------- extension

    def acquire(self, bucket: int, level: int) -> Tuple[int, List[Tuple[int, int]]]:
        """Try to rent ``remote_extension`` dead slots for ``bucket``.

        Returns ``(granted_extension, host_slots)``. All-or-nothing: on
        shortage every popped entry goes back and the grant is 0. A
        grant fills the bucket's rented columns from 0, each holding a
        dummy; the caller assigns contents via :meth:`write_remote_all`
        and reports the memory writes. The previous round must be over
        (:meth:`reclaim`).
        """
        r = self.cfg.geometry[level].remote_extension
        if r == 0:
            return 0, []
        if self.n_active[bucket]:
            raise RuntimeError(
                f"bucket {bucket} still rents {self.n_active[bucket]} slots"
            )
        queue = self.queues.get(level)
        self.extension_attempts += 1
        if queue is None or not len(queue):
            # Popping an empty queue is side-effect free, so the empty
            # case (common before the DeadQs warm up) can skip straight
            # to the all-or-nothing denial.
            return 0, []
        store = self.store
        got: List[Tuple[int, int]] = []
        rejected: List[Tuple[int, int]] = []
        while len(got) < r:
            entry = queue.pop_valid(store)
            if entry is None:
                break
            if entry[0] == bucket:
                # Renting a slot from the bucket being reshuffled would
                # just shrink its own usable set; skip it.
                rejected.append(entry)
                continue
            got.append(entry)
        if rejected or len(got) < r:
            gen = store.generation
            for hb, hs in rejected:
                queue.requeue_front(hb, hs, int(gen[hb, hs]))
            if len(got) < r:
                for hb, hs in got:
                    queue.requeue_front(hb, hs, int(gen[hb, hs]))
                return 0, []
        for i, (hb, hs) in enumerate(got):
            # A QUEUED slot already reads CONSUMED in its own bucket's
            # row and keeps doing so: the host never sees what the
            # renter stores there.
            store.set_status(hb, hs, ST_IN_USE)
            self.host_bucket[bucket, i] = hb
            self.host_slot[bucket, i] = hs
        store.slots[bucket, store.z_max:store.z_max + r] = DUMMY
        self.n_active[bucket] = r
        self.extension_grants += 1
        return r, got

    def write_remote_all(self, bucket: int, contents: Sequence[int]) -> None:
        """Set the content (block id or DUMMY) of every slot ``bucket``
        rented this round, in one store.

        ``contents[i]`` goes to column ``i``, the i-th host
        :meth:`acquire` returned; called once, right after it.
        """
        n = self.n_active[bucket]
        if len(contents) != n:
            raise ValueError(
                f"bucket {bucket} rents {n} slots, got {len(contents)} contents"
            )
        z_max = self.store.z_max
        self.store.slots[bucket, z_max:z_max + n] = contents

    def reclaim(self, bucket: int) -> List[Tuple[int, int]]:
        """End ``bucket``'s rental round (its reshuffle begins).

        Unconsumed rented slots return to their level's DeadQ and their
        columns are cleared; whatever real blocks they held the caller
        has already read out of the row (its ``>= 0`` entries).
        Returns the released host slots in rental order.
        """
        if not self.n_active[bucket]:
            return []
        store = self.store
        cols = store.slots[bucket, store.z_max:]
        released: List[Tuple[int, int]] = []
        for i in (cols != UNALLOCATED).nonzero()[0].tolist():
            hb = self.host_bucket.item(bucket, i)
            hs = self.host_slot.item(bucket, i)
            released.append((hb, hs))
            queue = self.queues.get(store.level(hb))
            store.set_status(hb, hs, ST_QUEUED)
            gen = int(store.generation[hb, hs])
            if queue is None or not queue.push(hb, hs, gen):
                # Queue full: the slot stays dead until its host bucket
                # reshuffles over it.
                store.set_status(hb, hs, ST_DEAD)
            self.reclaimed_slots += 1
        cols[:] = UNALLOCATED
        self.n_active[bucket] = 0
        return released

    # ------------------------------------------------------- readPath side

    def consume_remote(self, bucket: int, i: int) -> Tuple[int, int]:
        """Serve a readPath from ``bucket``'s ``i``-th rented slot;
        returns the host ``(bucket, slot)`` the read goes to.

        The column is cleared in place (the others keep their order),
        the host slot turns DEAD (gatherable again) and the renter's
        access count advances exactly as for a local read.
        """
        store = self.store
        col = store.z_max + i
        content = store.slots.item(bucket, col)
        if content < DUMMY:
            raise RuntimeError(f"bucket {bucket} rents no slot in column {i}")
        store.slots[bucket, col] = UNALLOCATED
        self.n_active[bucket] -= 1
        hb = self.host_bucket.item(bucket, i)
        hs = self.host_slot.item(bucket, i)
        store.set_status(hb, hs, ST_DEAD)
        store.count[bucket] += 1
        self.remote_reads += 1
        if content >= 0:
            self.remote_real_reads += 1
        return hb, hs

    # ------------------------------------------------------------ checking

    def check_invariants(self) -> None:
        """Rental ownership and DeadQ validity over the whole tree (test
        hook; raises ``AssertionError``).

        Every rented column's host is IN_USE, reads CONSUMED in its own
        row, sits at the renter's level and is not the renter; no two
        columns share a host; IN_USE slots, rented columns and
        ``n_active`` agree. Per tracked level the DeadQ's live entries
        (generation unchanged, status QUEUED) are distinct and are
        exactly that level's QUEUED slots; no other level has one.
        """
        store = self.store
        width = store.slots.shape[1]
        level_of = store.level_of_bucket
        rented = store.slots[:, store.z_max:] != UNALLOCATED
        if rented.sum(axis=1).tolist() != self.n_active:
            raise AssertionError("n_active disagrees with the rented columns")
        renter, col = rented.nonzero()
        hb = self.host_bucket[renter, col]
        hs = self.host_slot[renter, col]
        bad = (
            (store.status[hb, hs] != ST_IN_USE)
            | (store.slots[hb, hs] != CONSUMED)
            | (level_of[hb] != level_of[renter])
            | (hb == renter)
        ).nonzero()[0]
        if bad.size:
            k = bad[0]
            raise AssertionError(
                f"bucket {renter[k]} column {col[k]}: host ({hb[k]}, {hs[k]}) "
                f"is not an IN_USE, CONSUMED slot of another bucket at its level"
            )
        in_use = store.status == ST_IN_USE
        if (np.unique(hb * width + hs).size != renter.size
                or renter.size != int(in_use.sum())):
            raise AssertionError(
                f"{renter.size} rented columns over {int(in_use.sum())} "
                f"IN_USE slots: a host is shared or orphaned"
            )
        queued = store.status == ST_QUEUED
        tracked = np.zeros(self.cfg.levels, dtype=bool)
        for lv, queue in self._tracked_queues:
            tracked[lv] = True
            qb, qs, gen = np.array(queue.entries(), dtype=np.int64).reshape(-1, 3).T
            live = (store.generation[qb, qs] == gen) & queued[qb, qs]
            entries = np.sort((qb * width + qs)[live])
            lo = (1 << lv) - 1
            at_level = lo * width + queued[lo:2 * lo + 1].ravel().nonzero()[0]
            if not np.array_equal(entries, at_level):
                raise AssertionError(
                    f"level {lv}: {entries.size} live DeadQ entries for "
                    f"{at_level.size} QUEUED slots (duplicate, lost or foreign)"
                )
        stray = (queued.any(axis=1) & ~tracked[level_of]).nonzero()[0]
        if stray.size:
            raise AssertionError(
                f"bucket {stray[0]} has a QUEUED slot at a level with no DeadQ"
            )

    # ------------------------------------------------------------- metrics

    @property
    def extension_ratio(self) -> float:
        """Granted / attempted extensions (the paper's Fig. 14)."""
        if self.extension_attempts == 0:
            return 0.0
        return self.extension_grants / self.extension_attempts

    def active_rentals(self) -> int:
        return sum(self.n_active)

    def stats(self) -> Dict[str, object]:
        return {
            "extension_attempts": self.extension_attempts,
            "extension_grants": self.extension_grants,
            "extension_ratio": self.extension_ratio,
            "remote_reads": self.remote_reads,
            "remote_real_reads": self.remote_real_reads,
            "reclaimed_slots": self.reclaimed_slots,
            "active_rentals": self.active_rentals(),
            "queues": self.queues.stats(),
        }
