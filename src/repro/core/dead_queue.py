"""DeadQ: per-level FIFO queues of reclaimable dead slots.

The paper keeps one small (1000-entry) on-chip FIFO per *bottom* tree
level. ``gatherDEADs`` pushes the {slotAddr, slotInd} of DEAD slots seen
during readPath metadata accesses; remote allocation pops entries to
extend a reshuffling bucket's ``S``.

Entries can go stale: the slot's host bucket may get reshuffled (and the
slot rewritten) while the entry still sits in the queue. Rather than
searching the FIFO at every reshuffle, the bucket store bumps a per-slot
*generation* counter when it reclaims a queued slot; the queue validates
generations at pop time and silently discards stale entries. This keeps
both ends of the queue O(1), matching the paper's "since they are FIFO
queues, the maintenance cost is low".

The storage is a ``collections.deque`` of ``(host bucket, host slot,
generation)`` tuples, bounded by ``capacity`` by hand (a ``maxlen``
deque would silently drop the oldest entry). It is reached through
three calls, one per allocator step: :meth:`DeadQueue.gather`
(gatherDEADs), :meth:`DeadQueue.take` (a rental's all-or-nothing pop)
and :meth:`DeadQueue.reclaim` (a rental's unconsumed slots).
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.oram.bucket import BucketStore, ST_QUEUED


class DeadQueue:
    """One level's FIFO of (bucket, slot, generation) entries."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"DeadQueue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._q: Deque[Tuple[int, int, int]] = deque()
        self.pushed = 0
        self.dropped_full = 0
        self.popped = 0
        self.stale_discarded = 0

    def __len__(self) -> int:
        return len(self._q)

    def gather(
        self,
        bucket: int,
        slots: Sequence[int],
        generations: Sequence[int],
    ) -> int:
        """Append one host bucket's dead slots, oldest-slot first, as
        many as there is room for; returns how many.

        gatherDEADs leaves a slot it has no room for DEAD, to be seen
        again on a later path, so that is no drop.
        """
        n = min(len(slots), self.capacity - len(self._q))
        self._q.extend(zip(repeat(bucket, n), slots, generations))
        self.pushed += n
        return n

    def reclaim(self, entries: Sequence[Tuple[int, int, int]]) -> int:
        """Append ``(bucket, slot, generation)`` entries in order, as
        many as there is room for; returns how many. Each one left out
        counts in :attr:`dropped_full` (its slot stays dead until its
        host bucket reshuffles over it)."""
        n = min(len(entries), self.capacity - len(self._q))
        self._q.extend(entries[:n])
        self.pushed += n
        self.dropped_full += len(entries) - n
        return n

    def take(
        self, store: BucketStore, n: int, renter: int
    ) -> Optional[List[Tuple[int, int]]]:
        """Pop the ``n`` oldest entries that still describe a reclaimable
        slot of a bucket other than ``renter``, all or nothing.

        An entry is valid iff the slot's generation is unchanged and
        its status is still QUEUED (the host bucket has not reshuffled
        it away and nobody else consumed it); stale entries met on the
        way are discarded. Valid entries of ``renter`` itself are
        skipped (renting its own slot would just shrink its usable
        set) and go back to the head, each pushed there in turn, so
        they come back reversed. Short of ``n``, the valid entries
        taken go back the same way, after the skipped ones, and the
        result is ``None``.
        """
        q = self._q
        gen = store.generation
        status = store.status
        w = store.width
        got: List[Tuple[int, int, int]] = []
        skipped: List[Tuple[int, int, int]] = []
        while q and len(got) < n:
            entry = q.popleft()
            b, s, g = entry
            i = b * w + s
            if gen[i] != g or status[i] != ST_QUEUED:
                self.stale_discarded += 1
            elif b == renter:
                skipped.append(entry)
            else:
                got.append(entry)
        if len(got) < n:
            q.extendleft(skipped + got)
            return None
        q.extendleft(skipped)
        self.popped += n
        return [(b, s) for b, s, _ in got]

    def entries(self) -> List[Tuple[int, int, int]]:
        """Snapshot of (bucket, slot, generation) entries, oldest first."""
        return list(self._q)


class DeadQueueSet:
    """The collection of DeadQs, one per tracked level."""

    def __init__(self, levels: Iterable[int], capacity: int) -> None:
        self.queues: Dict[int, DeadQueue] = {
            int(lv): DeadQueue(capacity) for lv in levels
        }

    def get(self, level: int) -> Optional[DeadQueue]:
        return self.queues.get(level)

    def tracked_levels(self) -> Tuple[int, ...]:
        return tuple(sorted(self.queues))

    def total_entries(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def stats(self) -> Dict[int, Dict[str, int]]:
        return {
            lv: {
                "size": len(q),
                "pushed": q.pushed,
                "popped": q.popped,
                "dropped_full": q.dropped_full,
                "stale_discarded": q.stale_discarded,
            }
            for lv, q in self.queues.items()
        }
