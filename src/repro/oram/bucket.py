"""Physical storage of the ORAM tree's buckets.

State is numpy-backed so that trees with millions of buckets stay
affordable: one row per bucket, plus per-bucket counters and per-slot
status/generation words. A row is the bucket's local slots (padded to
the widest level's ``Z``, ``cfg.z_max`` columns) followed by one column
per slot it may rent from a dead block elsewhere (``r_max`` = the
largest ``remote_extension``; none for schemes without extension).
Column ``z_max + i`` is the bucket's ``i``-th rented slot: its content
lives here like any local slot's, its status stays REFRESHED, and
:class:`repro.core.remote.RemoteAllocator` records which physical
(bucket, slot) hosts the bytes.

Slot contents are encoded in a single int64:

- ``>= 0``: id of the real block stored in the slot;
- ``DUMMY`` (-1): a valid dummy block;
- ``CONSUMED`` (-2): the slot was read since the last refresh -- this is
  a *dead block* in the paper's vocabulary;
- ``UNALLOCATED`` (-3): padding column beyond this level's physical Z,
  or a rented-slot column with nothing rented in it.

Slot status (AB-ORAM, Table I's 2-bit ``status`` field) tracks the
remote-allocation lifecycle. ``QUEUED`` and ``IN_USE`` both map onto the
paper's single ``ALLOCATED`` state; we keep them distinct because the
simulator must know whether a slot is merely parked in a DeadQ (its
owner may lazily reclaim it at reshuffle) or actively hosting another
bucket's data (its owner must skip it). Lazy reclamation is implemented
with per-slot generation counters: DeadQ entries snapshot the
generation, and a stale entry is discarded at dequeue time.
"""

from __future__ import annotations

import enum
from typing import List, Sequence, Tuple

import numpy as np

from repro.oram.config import OramConfig

DUMMY = -1
CONSUMED = -2
UNALLOCATED = -3


class SlotStatus(enum.IntEnum):
    """Lifecycle of a physical slot under AB-ORAM."""

    REFRESHED = 0
    DEAD = 1
    QUEUED = 2   # paper: ALLOCATED (sitting in a DeadQ)
    IN_USE = 3   # paper: ALLOCATED (hosting a remote block)


# Plain ints for hot loops: enum attribute lookup costs a dict walk per
# access, which adds up at millions of slot scans per simulation.
ST_REFRESHED = int(SlotStatus.REFRESHED)
ST_DEAD = int(SlotStatus.DEAD)
ST_QUEUED = int(SlotStatus.QUEUED)
ST_IN_USE = int(SlotStatus.IN_USE)


class BucketStore:
    """All bucket state of one ORAM tree."""

    def __init__(self, cfg: OramConfig) -> None:
        self.cfg = cfg
        n = cfg.n_buckets
        #: Local columns; column ``z_max + i`` is the i-th rented slot.
        self.z_max = cfg.z_max
        width = self.z_max + max(g.remote_extension for g in cfg.geometry)
        self.level_of_bucket = np.empty(n, dtype=np.uint8)
        self.z_of_bucket = np.empty(n, dtype=np.uint8)
        for lv in range(cfg.levels):
            lo = (1 << lv) - 1
            hi = (1 << (lv + 1)) - 1
            self.level_of_bucket[lo:hi] = lv
            self.z_of_bucket[lo:hi] = cfg.geometry[lv].z_total
        self.slots = np.full((n, width), UNALLOCATED, dtype=np.int64)
        for lv in range(cfg.levels):
            lo = (1 << lv) - 1
            hi = (1 << (lv + 1)) - 1
            self.slots[lo:hi, : cfg.geometry[lv].z_total] = DUMMY
        self.count = np.zeros(n, dtype=np.int32)
        # Sustain granted for the current round; starts at the
        # *unextended* value (extensions are only granted at reshuffles).
        self.sustain = np.empty(n, dtype=np.int32)
        for lv in range(cfg.levels):
            lo = (1 << lv) - 1
            hi = (1 << (lv + 1)) - 1
            self.sustain[lo:hi] = cfg.geometry[lv].sustain_unextended
        self.status = np.zeros((n, width), dtype=np.uint8)
        self.generation = np.zeros((n, width), dtype=np.uint32)
        self.reshuffles_by_level = np.zeros(cfg.levels, dtype=np.int64)
        # Plain-list mirrors of the (immutable) per-bucket geometry:
        # scalar numpy indexing boxes a fresh object per lookup, which
        # is measurable at one ``level()``/``z_phys()`` per slot touch.
        self._level_list: List[int] = self.level_of_bucket.tolist()
        self._z_list: List[int] = self.z_of_bucket.tolist()
        self._sustain_list: List[int] = [
            g.sustain_unextended for g in cfg.geometry
        ]
        # Per-bucket tallies of QUEUED / IN_USE slots, maintained by
        # ``set_status``/``refresh`` and gatherDEADs (``consume`` only
        # ever moves REFRESHED -> DEAD, so it never touches them). They
        # make "how many slots are ALLOCATED" an O(1) lookup and keep
        # ``refresh`` on contiguous slice stores for every bucket with
        # no slot rented out. Plain lists: scalar numpy indexing would
        # box a fresh object per lookup.
        self.queued_count: List[int] = [0] * n
        self.in_use_count: List[int] = [0] * n
        # Per-bucket tally of DEAD slots (consumed, not yet queued or
        # reused), maintained by ``consume``/``refresh``/``set_status``
        # and gatherDEADs, which checks it to skip the dead-slot
        # scan on the (common) buckets with nothing to gather.
        self.dead_count: List[int] = [0] * n

    # ------------------------------------------------------------ geometry

    def level(self, bucket: int) -> int:
        return self._level_list[bucket]

    def z_phys(self, bucket: int) -> int:
        return self._z_list[bucket]

    def row(self, bucket: int) -> np.ndarray:
        """Physical slot contents of ``bucket`` (length = its Z)."""
        return self.slots[bucket, : self.z_of_bucket[bucket]]

    # ------------------------------------------------------------- queries

    def valid_real_slots(self, bucket: int) -> np.ndarray:
        """Local slots of ``bucket`` holding a real block, ascending."""
        return (self.row(bucket) >= 0).nonzero()[0]

    def dead_slots(self, bucket: int) -> np.ndarray:
        """Slots whose status is DEAD (consumed, not yet queued/reused)."""
        z = self._z_list[bucket]
        return (self.status[bucket, :z] == ST_DEAD).nonzero()[0]

    def usable_slots(self, bucket: int) -> np.ndarray:
        """Slots this bucket may rewrite at reshuffle (not rented out)."""
        z = self._z_list[bucket]
        return (self.status[bucket, :z] != ST_IN_USE).nonzero()[0]

    def path_slot_views(self, buckets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Slot contents and statuses of a whole path at once.

        Returns ``(slots, status)`` as two ``(len(buckets), width)``
        arrays (fancy-index copies, so later mutation of the store does
        not affect them), local columns first, rented ones from
        ``z_max`` on. Padding columns and empty rental columns hold
        ``UNALLOCATED``, and every column that is not a local slot has
        status REFRESHED, so content-based masks (``== DUMMY``,
        ``>= 0``) classify local and rented slots alike with no extra
        masking.
        """
        return self.slots[buckets], self.status[buckets]

    # ------------------------------------------------------------- updates

    def consume(self, bucket: int, slot: int) -> int:
        """Read a local slot: return its content, mark it consumed/dead."""
        if not 0 <= slot < self._z_list[bucket]:
            raise ValueError(
                f"slot {slot} out of range for bucket {bucket} "
                f"(Z={self._z_list[bucket]})"
            )
        # ``.item`` skips the numpy-scalar boxing of ``int(arr[i, j])``;
        # content < DUMMY covers exactly CONSUMED and UNALLOCATED.
        content = self.slots.item(bucket, slot)
        if content < DUMMY:
            raise RuntimeError(
                f"double consume of bucket {bucket} slot {slot} (={content})"
            )
        self.slots[bucket, slot] = CONSUMED
        # A consumable slot is always REFRESHED (DEAD/QUEUED slots hold
        # CONSUMED content and IN_USE slots are hidden from their host),
        # so this transition is unconditionally REFRESHED -> DEAD.
        self.status[bucket, slot] = ST_DEAD
        self.dead_count[bucket] += 1
        self.count[bucket] += 1
        return content

    def consume_path(
        self, buckets: Sequence[int], slots: Sequence[int]
    ) -> None:
        """Batched :meth:`consume` over distinct buckets (one readPath).

        The caller picked each slot from a live snapshot of valid
        dummy/green candidates, so the double-consume and range guards
        of the scalar call cannot fire and the writes collapse to two
        fancy stores. Buckets are distinct (one per path level), so the
        per-bucket tallies are plain increments.
        """
        b_arr = np.asarray(buckets, dtype=np.int64)
        s_arr = np.asarray(slots, dtype=np.int64)
        self.slots[b_arr, s_arr] = CONSUMED
        self.status[b_arr, s_arr] = ST_DEAD
        self.count[b_arr] += 1
        dc = self.dead_count
        for b in buckets:
            dc[b] += 1

    def refresh(
        self,
        bucket: int,
        real_blocks: Sequence[int],
        granted_extension: int = 0,
    ) -> List[int]:
        """Rewrite ``bucket``'s local slots with ``real_blocks`` plus
        dummies.

        Every usable slot (not rented out via remote allocation) is
        rewritten; QUEUED slots are reclaimed by bumping their
        generation (their DeadQ entries turn stale). Returns the slot
        indices written. Caller guarantees
        ``len(real_blocks) <= z_real`` and that enough usable slots
        exist (checked here).
        """
        z = self._z_list[bucket]
        if self.in_use_count[bucket] == 0:
            # No slot of this bucket is rented out, so every slot is
            # usable (QUEUED and DEAD ones get rewritten) and the
            # rewrite is contiguous slice stores. The only case for
            # schemes without a DeadQ, whose queued tally stays zero.
            usable = None
            n_usable = z
        else:
            usable = self.usable_slots(bucket)
            n_usable = int(usable.size)
        if len(real_blocks) > n_usable:
            raise RuntimeError(
                f"bucket {bucket}: {len(real_blocks)} real blocks but only "
                f"{n_usable} usable slots"
            )
        row = self.slots[bucket]
        st = self.status[bucket]
        if self.queued_count[bucket]:
            # Reclaim queued slots (lazy DeadQ invalidation). QUEUED
            # slots are never IN_USE, so they are all usable and the
            # bucket's queued tally drains to zero here.
            self.generation[bucket, (st[:z] == ST_QUEUED).nonzero()[0]] += 1
            self.queued_count[bucket] = 0
        if usable is None:
            row[:z] = DUMMY
            row[:len(real_blocks)] = real_blocks
            st[:z] = ST_REFRESHED
            written = list(range(z))
        else:
            row[usable] = DUMMY
            row[usable[:len(real_blocks)]] = real_blocks
            st[usable] = ST_REFRESHED
            written = usable.tolist()
        # DEAD slots are never IN_USE, so every one of them was just
        # rewritten (on both branches above): the tally drains to zero.
        self.dead_count[bucket] = 0
        self.count[bucket] = 0
        lvl = self._level_list[bucket]
        # Every sustained read consumes a distinct valid slot, so the
        # policy sustain (S + Y) is capped by the slots actually
        # refreshed; remote extension adds slots beyond the bucket.
        self.sustain[bucket] = (
            min(self._sustain_list[lvl], n_usable) + granted_extension
        )
        self.reshuffles_by_level[lvl] += 1
        return written

    def needs_reshuffle(self, bucket: int) -> bool:
        return self.count[bucket] >= self.sustain[bucket]

    def set_status(self, bucket: int, slot: int, status: SlotStatus) -> None:
        s = int(status)
        old = int(self.status[bucket, slot])
        if old == s:
            return
        if old == ST_QUEUED:
            self.queued_count[bucket] -= 1
        elif old == ST_IN_USE:
            self.in_use_count[bucket] -= 1
        elif old == ST_DEAD:
            self.dead_count[bucket] -= 1
        if s == ST_QUEUED:
            self.queued_count[bucket] += 1
        elif s == ST_IN_USE:
            self.in_use_count[bucket] += 1
        elif s == ST_DEAD:
            self.dead_count[bucket] += 1
        self.status[bucket, slot] = s

    def set_slot(self, bucket: int, slot: int, value: int) -> None:
        """Write one slot's content directly (warm fill)."""
        self.slots[bucket, slot] = value

    # --------------------------------------------------------- global scans

    def total_dead_slots(self) -> int:
        """Dead blocks in the whole tree (Fig. 2/3 metric).

        Counts consumed slots that have not been reused: status DEAD or
        QUEUED (queued slots still hold useless data until actually
        rented).
        """
        st = self.status
        return int(((st == SlotStatus.DEAD) | (st == SlotStatus.QUEUED)).sum())

    def dead_slots_by_level(self) -> np.ndarray:
        """Per-level dead-block census (Fig. 3)."""
        dead = (self.status == SlotStatus.DEAD) | (self.status == SlotStatus.QUEUED)
        per_bucket = dead.sum(axis=1)
        out = np.zeros(self.cfg.levels, dtype=np.int64)
        for lv in range(self.cfg.levels):
            lo = (1 << lv) - 1
            hi = (1 << (lv + 1)) - 1
            out[lv] = per_bucket[lo:hi].sum()
        return out

    def check_tallies(self) -> None:
        """The per-bucket DEAD / QUEUED / IN_USE tallies equal a recount
        of ``status`` (test hook; raises ``AssertionError``)."""
        for name, code in (("dead_count", ST_DEAD),
                           ("queued_count", ST_QUEUED),
                           ("in_use_count", ST_IN_USE)):
            recount = (self.status == code).sum(axis=1)
            off = (recount != getattr(self, name)).nonzero()[0]
            if off.size:
                b = int(off[0])
                raise AssertionError(
                    f"bucket {b}: {name}={getattr(self, name)[b]} but "
                    f"{int(recount[b])} slots have status {SlotStatus(code).name}"
                )
