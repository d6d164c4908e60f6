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
deque would silently drop the oldest entry).
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

    @property
    def is_full(self) -> bool:
        return len(self._q) >= self.capacity

    @property
    def space(self) -> int:
        """Free entries left before the queue is full."""
        return self.capacity - len(self._q)

    def push(self, bucket: int, slot: int, generation: int) -> bool:
        """Queue a dead slot; False if the queue is full (slot skipped)."""
        if len(self._q) >= self.capacity:
            self.dropped_full += 1
            return False
        self._q.append((bucket, slot, generation))
        self.pushed += 1
        return True

    def push_many(
        self,
        bucket: int,
        slots: Sequence[int],
        generations: Sequence[int],
    ) -> None:
        """Append several slots of one host bucket, oldest-slot first.

        Equivalent to one :meth:`push` per slot. The caller pre-limits
        the batch to :attr:`space` (gatherDEADs stops collecting at the
        queue's free room rather than dropping), so overflow here is a
        caller bug, not an expected event.
        """
        n = len(slots)
        if n > self.space:
            raise ValueError(
                f"push_many of {n} entries exceeds free space {self.space}"
            )
        self._q.extend(zip(repeat(bucket, n), slots, generations))
        self.pushed += n

    def pop_valid(self, store: BucketStore) -> Optional[Tuple[int, int]]:
        """Pop the oldest entry that still describes a reclaimable slot.

        An entry is valid iff the slot's generation is unchanged and its
        status is still QUEUED (i.e. the host bucket has not reshuffled
        it away and nobody else consumed it).
        """
        q = self._q
        gen = store.generation.item
        status = store.status.item
        while q:
            b, s, g = q.popleft()
            if gen(b, s) == g and status(b, s) == ST_QUEUED:
                self.popped += 1
                return b, s
            self.stale_discarded += 1
        return None

    def requeue_front(self, bucket: int, slot: int, generation: int) -> None:
        """Put an entry back at the head (used when a pop must be undone)."""
        if len(self._q) >= self.capacity:
            raise RuntimeError("requeue_front on a full DeadQueue")
        self._q.appendleft((bucket, slot, generation))
        self.popped -= 1

    def entries(self) -> List[Tuple[int, int, int]]:
        """Snapshot of (bucket, slot, generation) entries, oldest first."""
        return list(self._q)


class DeadQueueSet:
    """The collection of DeadQs, one per tracked level."""

    def __init__(self, levels: Iterable[int], capacity: int) -> None:
        self.queues: Dict[int, DeadQueue] = {
            int(lv): DeadQueue(capacity) for lv in levels
        }

    def __contains__(self, level: int) -> bool:
        return level in self.queues

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
