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

Lifecycle of a rented slot (each call writes the status and the
:class:`~repro.oram.bucket.BucketStore` tallies of the one transition
it makes, reading nothing back):

1. some bucket's slot dies (a readPath consumes it) -> status DEAD;
2. ``gather_path`` sees it during a later readPath's metadata pass
   and queues it in its level's DeadQ: DEAD -> QUEUED;
3. a reshuffling bucket rents it (``acquire``): QUEUED -> IN_USE; the
   renter writes fresh content (real block or dummy) to the host
   address (``write_remote_all``). The *logical* content sits in the
   renter's row -- the host bucket's own slot keeps showing CONSUMED so
   host-side scans never touch the rented slot;
4. either a readPath of the renter consumes the remote slot
   (``consume_remote``: IN_USE -> DEAD, gatherable anew), or the
   renter's next reshuffle returns it unconsumed to the DeadQ
   (``reclaim``: IN_USE -> QUEUED, or -> DEAD when the DeadQ is full).

The controller calls ``acquire`` only at levels that rent and
``reclaim`` only for buckets that do (``n_active``); both return early,
touching no counter, anywhere else.

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
alike. This module keeps only *where the bytes live*: ``hosts``, one
flat list of ``(bucket, slot)`` pairs, column ``i`` of bucket ``b`` at
``b * r_max + i`` (the paper's Table I ``remoteAddr`` / ``remoteInd``
fields), valid wherever the column is rented, and ``n_active``, how
many columns each bucket rents. A round's
columns are filled from 0 in DeadQ pop order and cleared in place as
they are consumed, so ascending column order is rental order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dead_queue import DeadQueueSet
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
        #: (level, queue, Z) for the levels with a DeadQ, ascending --
        #: the only levels gather_path visits (gathering on any other
        #: level is a guaranteed no-op).
        self._tracked = [
            (lv, self.queues.get(lv), cfg.geometry[lv].z_total)
            for lv in self.queues.tracked_levels()
        ]
        #: Slots a bucket of each level rents per round.
        self._extension = [g.remote_extension for g in cfg.geometry]
        #: Rented columns a bucket row has room for.
        self.r_max = r_max = max(g.remote_extension for g in cfg.geometry)
        #: Physical (bucket, slot) behind rented column ``i`` of bucket
        #: ``b``, at ``b * r_max + i``; meaningful only while that
        #: column is rented.
        self.hosts: List[Tuple[int, int]] = [(-1, -1)] * (cfg.n_buckets * r_max)
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
        queues its first ``min(dead, Z - 1 - allocated, free room)`` DEAD
        slots, ascending. The amounts come from the tallies, so one
        pass costs, per bucket that queues, one append, and per queued
        slot one bounded status search, one generation read and one
        status store. The searches stop at the bucket's last local
        slot: a tally that overstates the DEAD slots raises
        ``ValueError`` instead of queuing the next bucket's. Returns
        how many slots were queued.
        """
        store = self.store
        dead = store.dead_count
        queued = store.queued_count
        in_use = store.in_use_count
        status = store.status
        gen = store.generation
        w = store.width
        total = 0
        for lv, queue, z in self._tracked:
            b = buckets[lv]
            d = dead[b]
            if not d:
                continue
            room = min(d, z - 1 - queued[b] - in_use[b])
            if room <= 0:
                continue
            # No column past a bucket's local slots is ever DEAD.
            base = b * w
            end = base + z
            at = []
            i = base - 1
            for _ in range(room):
                i = status.index(ST_DEAD, i + 1, end)
                at.append(i)
            n = queue.gather(b, [i - base for i in at], [gen[i] for i in at])
            for i in at[:n]:
                status[i] = ST_QUEUED
            dead[b] -= n
            queued[b] += n
            total += n
        return total

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
        r = self._extension[level]
        if r == 0:
            return 0, []
        if self.n_active[bucket]:
            raise RuntimeError(
                f"bucket {bucket} still rents {self.n_active[bucket]} slots"
            )
        queue = self.queues.get(level)
        self.extension_attempts += 1
        store = self.store
        got = None if queue is None else queue.take(store, r, bucket)
        if got is None:
            return 0, []
        status = store.status
        queued = store.queued_count
        in_use = store.in_use_count
        w = store.width
        for hb, hs in got:
            # QUEUED -> IN_USE. A QUEUED slot already reads CONSUMED in
            # its own bucket's row and keeps doing so: the host never
            # sees what the renter stores there.
            status[hb * w + hs] = ST_IN_USE
            queued[hb] -= 1
            in_use[hb] += 1
        at = bucket * self.r_max
        self.hosts[at:at + r] = got
        col = bucket * w + store.z_max
        store.slots[col:col + r] = [DUMMY] * r
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
        col = bucket * self.store.width + self.store.z_max
        self.store.slots[col:col + n] = contents

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
        w = store.width
        lo = bucket * w + store.z_max
        hi = bucket * w + w
        at = bucket * self.r_max
        released = [
            host for host, content in zip(
                self.hosts[at:at + self.r_max], store.slots[lo:hi])
            if content != UNALLOCATED
        ]
        # A host sits at its renter's level.
        queue = self.queues.get(store.level(bucket))
        gen = store.generation
        n_queued = 0 if queue is None else queue.reclaim(
            [(hb, hs, gen[hb * w + hs]) for hb, hs in released]
        )
        status = store.status
        in_use = store.in_use_count
        for k, (hb, hs) in enumerate(released):
            # IN_USE -> QUEUED; past a full queue IN_USE -> DEAD: the
            # slot stays dead until its host bucket reshuffles over it.
            in_use[hb] -= 1
            if k < n_queued:
                status[hb * w + hs] = ST_QUEUED
                store.queued_count[hb] += 1
            else:
                status[hb * w + hs] = ST_DEAD
                store.dead_count[hb] += 1
        self.reclaimed_slots += len(released)
        store.slots[lo:hi] = [UNALLOCATED] * (hi - lo)
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
        col = bucket * store.width + store.z_max + i
        content = store.slots[col]
        if content < DUMMY:
            raise RuntimeError(f"bucket {bucket} rents no slot in column {i}")
        store.slots[col] = UNALLOCATED
        self.n_active[bucket] -= 1
        hb, hs = self.hosts[bucket * self.r_max + i]
        # IN_USE -> DEAD.
        store.status[hb * store.width + hs] = ST_DEAD
        store.in_use_count[hb] -= 1
        store.dead_count[hb] += 1
        store.count[bucket] += 1
        self.remote_reads += 1
        if content >= 0:
            self.remote_real_reads += 1
        return hb, hs

    # ------------------------------------------------------------ checking

    def host_table(self) -> np.ndarray:
        """``hosts`` as an ``(n_buckets, r_max, 2)`` int64 array (a copy)."""
        return np.array(self.hosts, dtype=np.int64).reshape(
            self.cfg.n_buckets, self.r_max, 2)

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
        width = store.width
        slots = store.table("slots")
        status = store.table("status")
        generation = store.table("generation")
        level_of = store.level_of_bucket
        rented = slots[:, store.z_max:] != UNALLOCATED
        if rented.sum(axis=1).tolist() != self.n_active:
            raise AssertionError("n_active disagrees with the rented columns")
        renter, col = rented.nonzero()
        hb, hs = self.host_table()[renter, col].T
        bad = (
            (status[hb, hs] != ST_IN_USE)
            | (slots[hb, hs] != CONSUMED)
            | (level_of[hb] != level_of[renter])
            | (hb == renter)
        ).nonzero()[0]
        if bad.size:
            k = bad[0]
            raise AssertionError(
                f"bucket {renter[k]} column {col[k]}: host ({hb[k]}, {hs[k]}) "
                f"is not an IN_USE, CONSUMED slot of another bucket at its level"
            )
        in_use = status == ST_IN_USE
        if (np.unique(hb * width + hs).size != renter.size
                or renter.size != int(in_use.sum())):
            raise AssertionError(
                f"{renter.size} rented columns over {int(in_use.sum())} "
                f"IN_USE slots: a host is shared or orphaned"
            )
        queued = status == ST_QUEUED
        tracked = np.zeros(self.cfg.levels, dtype=bool)
        for lv, queue, _ in self._tracked:
            tracked[lv] = True
            qb, qs, gen = np.array(queue.entries(), dtype=np.int64).reshape(-1, 3).T
            live = (generation[qb, qs] == gen) & queued[qb, qs]
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
