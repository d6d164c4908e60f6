"""Physical storage of the ORAM tree's buckets.

One row per bucket, plus per-bucket counters and per-slot
status/generation words. A row is the bucket's local slots (padded to
the widest level's ``Z``, ``cfg.z_max`` columns) followed by one column
per slot it may rent from a dead block elsewhere (``r_max`` = the
largest ``remote_extension``; none for schemes without extension), so
rows are ``width = z_max + r_max`` slots wide. Column ``z_max + i`` is
the bucket's ``i``-th rented slot: its content lives here like any
local slot's, its status stays REFRESHED, and
:class:`repro.core.remote.RemoteAllocator` records which physical
(bucket, slot) hosts the bytes.

The per-slot tables are flat and row-major -- slot ``(b, s)`` sits at
``b * width + s`` -- in plain containers: ``slots`` a ``list``,
``status`` a ``bytearray``, ``generation`` an ``array('I')``. The
per-bucket ``count`` and ``sustain`` are lists. Every protocol step
touches a few slots of a few rows (``width`` <= 12 for every scheme
here), where a numpy call costs more than the work; whole-table scans (invariant checks,
fingerprints) take a numpy copy through :meth:`BucketStore.table`.
Every search of a row stays inside it (a bounded ``index``/``find`` or
a row slice), so a wrong tally raises instead of reaching into the
next bucket. The price is memory: a process that warm-fills an ``ab``
tree and runs 2,500 accesses peaks at 38.1 MB RSS at L12 with numpy
tables or these, and at 62.6 MB against 53.9 MB at L16, the depth of
``make bench-full`` (a list slot is a pointer, plus an int object for
each block id).

Slot contents are ints:

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
from array import array
from typing import List, Sequence

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

#: The numpy dtype :meth:`BucketStore.table` gives each table; the
#: first three are per slot, ``(n_buckets, width)``, the rest per bucket.
TABLES = {
    "slots": np.int64,
    "status": np.uint8,
    "generation": np.uint32,
    "count": np.int32,
    "sustain": np.int32,
}


class BucketStore:
    """All bucket state of one ORAM tree."""

    def __init__(self, cfg: OramConfig) -> None:
        self.cfg = cfg
        n = cfg.n_buckets
        #: Local columns; column ``z_max + i`` is the i-th rented slot.
        self.z_max = cfg.z_max
        self.width = width = self.z_max + max(
            g.remote_extension for g in cfg.geometry
        )
        self.level_of_bucket = np.empty(n, dtype=np.uint8)
        self.z_of_bucket = np.empty(n, dtype=np.uint8)
        self.slots: List[int] = []
        self.sustain: List[int] = []
        for lv in range(cfg.levels):
            lo = (1 << lv) - 1
            hi = (1 << (lv + 1)) - 1
            g = cfg.geometry[lv]
            self.level_of_bucket[lo:hi] = lv
            self.z_of_bucket[lo:hi] = g.z_total
            row = [DUMMY] * g.z_total + [UNALLOCATED] * (width - g.z_total)
            self.slots += row * (hi - lo)
            # Sustain granted for the current round; starts at the
            # *unextended* value (extensions are only granted at
            # reshuffles).
            self.sustain += [g.sustain_unextended] * (hi - lo)
        self.count: List[int] = [0] * n
        self.status = bytearray(n * width)
        self.generation = array("I", [0]) * (n * width)
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
        # ``refresh`` and the remote allocator's transitions
        # (``consume`` only ever moves REFRESHED -> DEAD, so it never
        # touches them). They make "how many slots are ALLOCATED" an
        # O(1) lookup and keep ``refresh`` on contiguous slice stores
        # for every bucket with no slot rented out.
        self.queued_count: List[int] = [0] * n
        self.in_use_count: List[int] = [0] * n
        # Per-bucket tally of DEAD slots (consumed, not yet queued or
        # reused), maintained by ``consume``/``refresh`` and the remote
        # allocator's transitions; gatherDEADs checks it to skip the
        # dead-slot scan on the (common) buckets with nothing to gather.
        self.dead_count: List[int] = [0] * n

    # ------------------------------------------------------------ geometry

    def level(self, bucket: int) -> int:
        return self._level_list[bucket]

    def z_phys(self, bucket: int) -> int:
        return self._z_list[bucket]

    def row(self, bucket: int) -> List[int]:
        """Physical slot contents of ``bucket`` (length = its Z), a copy."""
        base = bucket * self.width
        return self.slots[base:base + self._z_list[bucket]]

    def table(self, name: str) -> np.ndarray:
        """A numpy copy of one table (a key of :data:`TABLES`), shaped
        ``(n_buckets, width)`` per slot or ``(n_buckets,)`` per bucket,
        for whole-table scans; writes to it do not reach the store."""
        flat = getattr(self, name)
        dtype = TABLES[name]
        if isinstance(flat, list):
            out = np.array(flat, dtype=dtype)
        else:
            out = np.frombuffer(flat, dtype=dtype).copy()
        if name in ("slots", "status", "generation"):
            return out.reshape(self.cfg.n_buckets, self.width)
        return out

    # ------------------------------------------------------------- queries

    def valid_real_slots(self, bucket: int) -> List[int]:
        """Local slots of ``bucket`` holding a real block, ascending."""
        return [s for s, v in enumerate(self.row(bucket)) if v >= 0]

    def usable_slots(self, bucket: int) -> List[int]:
        """Slots this bucket may rewrite at reshuffle (not rented out)."""
        base = bucket * self.width
        st = self.status
        return [s for s in range(self._z_list[bucket])
                if st[base + s] != ST_IN_USE]

    def path_slot_views(self, buckets: Sequence[int]) -> List[List[int]]:
        """Slot contents of a whole path at once.

        One ``width``-long list per bucket, a copy (later mutation of
        the store does not affect it), local columns first, rented ones
        from ``z_max`` on. Padding columns and empty rental columns
        hold ``UNALLOCATED``, and a slot holding ``DUMMY`` or a block
        id is always REFRESHED (:meth:`check_tallies`), so content
        tests (``== DUMMY``, ``>= 0``) classify local and rented slots
        alike with no status test.
        """
        slots = self.slots
        w = self.width
        return [slots[b * w:b * w + w] for b in buckets]

    # ------------------------------------------------------------- updates

    def consume(self, bucket: int, slot: int) -> int:
        """Read a local slot: return its content, mark it consumed/dead."""
        if not 0 <= slot < self._z_list[bucket]:
            raise ValueError(
                f"slot {slot} out of range for bucket {bucket} "
                f"(Z={self._z_list[bucket]})"
            )
        # content < DUMMY covers exactly CONSUMED and UNALLOCATED.
        i = bucket * self.width + slot
        content = self.slots[i]
        if content < DUMMY:
            raise RuntimeError(
                f"double consume of bucket {bucket} slot {slot} (={content})"
            )
        self.slots[i] = CONSUMED
        # A consumable slot is always REFRESHED (DEAD/QUEUED slots hold
        # CONSUMED content and IN_USE slots are hidden from their host),
        # so this transition is unconditionally REFRESHED -> DEAD.
        self.status[i] = ST_DEAD
        self.dead_count[bucket] += 1
        self.count[bucket] += 1
        return content

    def consume_path(
        self, buckets: Sequence[int], slots: Sequence[int]
    ) -> None:
        """Batched :meth:`consume` over distinct buckets (one readPath).

        The caller picked each slot from a live snapshot of valid
        dummy/green candidates, so the double-consume and range guards
        of the scalar call cannot fire. Buckets are distinct (one per
        path level), so the per-bucket tallies are plain increments.
        """
        table = self.slots
        st = self.status
        w = self.width
        count = self.count
        dc = self.dead_count
        for b, s in zip(buckets, slots):
            i = b * w + s
            table[i] = CONSUMED
            st[i] = ST_DEAD
            count[b] += 1
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
        base = bucket * self.width
        end = base + z
        st = self.status
        # With no slot of this bucket rented out every slot is usable
        # (QUEUED and DEAD ones get rewritten) and the rewrite is two
        # slice stores. The only case for schemes without a DeadQ,
        # whose queued tally stays zero.
        whole = self.in_use_count[bucket] == 0
        written = list(range(z)) if whole else self.usable_slots(bucket)
        n_real = len(real_blocks)
        if n_real > len(written):
            raise RuntimeError(
                f"bucket {bucket}: {n_real} real blocks but only "
                f"{len(written)} usable slots"
            )
        if self.queued_count[bucket]:
            # Reclaim queued slots (lazy DeadQ invalidation). QUEUED
            # slots are never IN_USE, so they are all usable and the
            # bucket's queued tally drains to zero here.
            gen = self.generation
            i = st.find(ST_QUEUED, base, end)
            while i >= 0:
                gen[i] += 1
                i = st.find(ST_QUEUED, i + 1, end)
            self.queued_count[bucket] = 0
        contents = [*real_blocks, *[DUMMY] * (len(written) - n_real)]
        if whole:
            self.slots[base:end] = contents
            st[base:end] = bytes(z)     # ST_REFRESHED
        else:
            table = self.slots
            for s, content in zip(written, contents):
                table[base + s] = content
                st[base + s] = ST_REFRESHED
        # DEAD slots are never IN_USE, so every one of them was just
        # rewritten (on both branches above): the tally drains to zero.
        self.dead_count[bucket] = 0
        self.count[bucket] = 0
        lvl = self._level_list[bucket]
        # Every sustained read consumes a distinct valid slot, so the
        # policy sustain (S + Y) is capped by the slots actually
        # refreshed; remote extension adds slots beyond the bucket.
        self.sustain[bucket] = (
            min(self._sustain_list[lvl], len(written)) + granted_extension
        )
        self.reshuffles_by_level[lvl] += 1
        return written

    def needs_reshuffle(self, bucket: int) -> bool:
        return self.count[bucket] >= self.sustain[bucket]

    def set_slot(self, bucket: int, slot: int, value: int) -> None:
        """Write one slot's content directly (warm fill)."""
        self.slots[bucket * self.width + slot] = value

    # --------------------------------------------------------- global scans

    def total_dead_slots(self) -> int:
        """Dead blocks in the whole tree (Fig. 2/3 metric).

        Counts consumed slots that have not been reused: status DEAD or
        QUEUED (queued slots still hold useless data until actually
        rented).
        """
        return self.status.count(ST_DEAD) + self.status.count(ST_QUEUED)

    def dead_slots_by_level(self) -> np.ndarray:
        """Per-level dead-block census (Fig. 3)."""
        st = self.status
        w = self.width
        out = np.zeros(self.cfg.levels, dtype=np.int64)
        for lv in range(self.cfg.levels):
            lo = ((1 << lv) - 1) * w
            hi = ((1 << (lv + 1)) - 1) * w
            out[lv] = st.count(ST_DEAD, lo, hi) + st.count(ST_QUEUED, lo, hi)
        return out

    def check_tallies(self) -> None:
        """The per-bucket DEAD / QUEUED / IN_USE tallies equal a recount
        of ``status``, and every slot holding ``DUMMY`` or a block id is
        REFRESHED (test hook; raises ``AssertionError``)."""
        status = self.table("status")
        for name, code in (("dead_count", ST_DEAD),
                           ("queued_count", ST_QUEUED),
                           ("in_use_count", ST_IN_USE)):
            recount = (status == code).sum(axis=1)
            off = (recount != getattr(self, name)).nonzero()[0]
            if off.size:
                b = int(off[0])
                raise AssertionError(
                    f"bucket {b}: {name}={getattr(self, name)[b]} but "
                    f"{int(recount[b])} slots have status {SlotStatus(code).name}"
                )
        # readPath's content tests read no status (``path_slot_views``).
        slots = self.table("slots")
        stale = (slots >= DUMMY) & (status != ST_REFRESHED)
        if stale.any():
            b, s = (int(i[0]) for i in stale.nonzero())
            raise AssertionError(
                f"bucket {b} slot {s} holds {int(slots[b, s])} with "
                f"status {SlotStatus(int(status[b, s])).name}"
            )
