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

from typing import Dict, Iterable, List, Tuple


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

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block: int) -> bool:
        return block in self._blocks

    @property
    def occupancy(self) -> int:
        return len(self._blocks)

    def leaf_of(self, block: int) -> int:
        """Current leaf label of a resident block."""
        return self._blocks[block]

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

    def remove(self, block: int) -> int:
        """Remove a block; returns its leaf label."""
        return self._blocks.pop(block)

    def remove_many(self, blocks: Iterable[int]) -> None:
        """Bulk :meth:`remove` in iteration order (reshuffle refill).

        Raises ``KeyError`` on the first non-resident block, exactly as
        the per-block calls would.
        """
        pop = self._blocks.pop
        for block in blocks:
            pop(block)

    def blocks(self) -> Iterable[Tuple[int, int]]:
        """Iterate over ``(block, leaf)`` pairs (snapshot order unspecified)."""
        return self._blocks.items()

    def pick_for_bucket(self, position: int, shift: int, capacity: int) -> List[int]:
        """Up to ``capacity`` resident blocks placeable in the bucket at
        ``position`` of level ``levels - 1 - shift`` (their leaf path
        crosses it, i.e. ``leaf >> shift == position``), in insertion
        order -- the order the reshuffle refill greedy depends on.
        """
        if capacity <= 0 or not self._blocks:
            # Nothing can match: skip the O(stash) scan outright (the
            # common case right after an evictPath drained the stash).
            return []
        found: List[int] = []
        for block, leaf in self._blocks.items():
            if (leaf >> shift) == position:
                found.append(block)
                if len(found) >= capacity:
                    break
        return found
