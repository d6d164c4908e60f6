"""The on-chip stash.

The stash buffers real blocks between the moment a path/bucket read
pulls them on-chip and the moment an ``evictPath`` (or, for Ring ORAM,
an ``earlyReshuffle`` piggy-back) writes them back into the tree. Every
resident block carries its current leaf label; eviction placement is
decided by how deep that label's path intersects the eviction path.

The stash has a hard ``capacity``; the ORAM protocols are parameterized
(utilization 50%, background eviction) so that this bound is essentially
never hit, and :class:`StashOverflowError` flags a mis-configuration
rather than an expected runtime event. Peak occupancy is tracked because
the paper's CB baseline keys background eviction off it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


class StashOverflowError(RuntimeError):
    """Raised when the stash exceeds its configured capacity."""


class Stash:
    """Map of resident real blocks to their current leaf labels."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"stash capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._blocks: Dict[int, int] = {}
        self.peak_occupancy = 0
        self.total_inserts = 0
        self.overflow_events = 0

    def __contains__(self, block: int) -> bool:
        return block in self._blocks

    @property
    def occupancy(self) -> int:
        return len(self._blocks)

    def add(self, block: int, leaf: int) -> None:
        """Insert (or update) a resident block."""
        if block < 0:
            raise ValueError(f"negative block id {block}")
        self._blocks[block] = leaf
        self.total_inserts += 1
        if len(self._blocks) > self.peak_occupancy:
            self.peak_occupancy = len(self._blocks)
        if len(self._blocks) > self.capacity:
            self.overflow_events += 1
            raise StashOverflowError(
                f"stash overflow: {len(self._blocks)} > capacity {self.capacity}"
            )

    def add_many(self, blocks: List[int], leaves: List[int]) -> None:
        """Bulk :meth:`add`, one occupancy/overflow check for the batch.

        Semantically equivalent to adding the pairs one by one (the
        occupancy only grows during the batch, so its peak is its final
        value); callers guarantee non-negative block ids. On overflow
        the whole batch is already inserted and a single overflow event
        is recorded.
        """
        bm = self._blocks
        bm.update(zip(blocks, leaves))
        self.total_inserts += len(blocks)
        n = len(bm)
        if n > self.peak_occupancy:
            self.peak_occupancy = n
        if n > self.capacity:
            self.overflow_events += 1
            raise StashOverflowError(
                f"stash overflow: {n} > capacity {self.capacity}"
            )

    def remap(self, block: int, new_leaf: int) -> None:
        """Update the leaf label of a resident block."""
        if block not in self._blocks:
            raise KeyError(f"block {block} not in stash")
        self._blocks[block] = new_leaf

    def remove_many(self, blocks: Iterable[int]) -> None:
        """Remove resident blocks in iteration order (reshuffle refill).

        Raises ``KeyError`` on the first non-resident block, the ones
        before it already removed.
        """
        pop = self._blocks.pop
        for block in blocks:
            pop(block)

    def blocks(self) -> Iterable[Tuple[int, int]]:
        """Iterate over ``(block, leaf)`` pairs (snapshot order unspecified)."""
        return self._blocks.items()

    def pick_path(
        self, leaf: int, caps: Sequence[int], height: int = 0
    ) -> List[List[int]]:
        """The write-back picks of consecutive buckets on ``leaf``'s path,
        one list per bucket in ``caps`` order (nothing is removed).

        ``caps[i] >= 0`` is the room of the bucket ``height + i`` levels
        above the leaf, leaf side first. Filled in that order, each
        bucket takes the first blocks (insertion order) whose leaf path
        crosses it and no deeper bucket took: Path ORAM's greedy
        write-back. That is one pass: each block goes to the deepest
        bucket it may live in (``(block_leaf ^ leaf).bit_length()``
        levels up) or the next one up with room. A lone bucket (an
        earlyReshuffle, a rebuild) takes the first ``caps[0]`` blocks
        under it.
        """
        n = len(caps)
        if n == 1:
            lo = leaf >> height << height
            hi = lo + (1 << height)
            got: List[int] = []
            if caps[0]:
                for block, bl in self._blocks.items():
                    if lo <= bl < hi:
                        got.append(block)
                        if len(got) == caps[0]:
                            break
            return [got]
        room = [*caps, 1]           # a sentinel above the top bucket
        left = sum(caps)
        picks: List[List[int]] = [[] for _ in caps]
        top = height + n - 1        # the shift of the highest bucket
        at_top = leaf >> top
        for block, bl in self._blocks.items():
            if not left:
                break
            if bl >> top != at_top:
                continue            # its path misses every bucket
            h = (bl ^ leaf).bit_length() - height
            if h < 0:
                h = 0
            while not room[h]:
                h += 1
            if h < n:
                picks[h].append(block)
                room[h] -= 1
                left -= 1
        return picks
