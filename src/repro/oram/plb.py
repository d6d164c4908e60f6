"""Recursive position map + PLB model (Freecursive-ORAM style).

The paper's Table III provisions a 512KB on-chip PosMap and a 64KB PLB.
At the paper's scale (41.9M protected blocks, ~3B per mapping) the full
position map is >120MB -- far beyond 512KB -- so, as in the secure
processor literature the configuration is drawn from (Freecursive
ORAM), the map is stored *recursively*: position-map level PM0 packs
``fanout`` mappings per 64B block, PM1 maps PM0's blocks, and so on
until a level fits on-chip. A Position-map Lookaside Buffer (PLB)
caches recently used PM blocks; each PLB miss costs one extra full ORAM
access before the data access can start.

This module models exactly that cost structure:

- :class:`RecursivePosMap` computes the recursion depth from the block
  count and the on-chip capacity, keeps an LRU PLB over (level, index)
  PM blocks, and reports how many PM fetches an access to a given user
  block needs;
- the Ring controller (``posmap_mode="recursive"``) turns each fetch
  into a protocol-complete dummy path access attributed to the
  ``posMap`` operation class.

Leaving the default ``posmap_mode="onchip"`` reproduces the paper's
evaluation (which charges no PosMap traffic); the recursive mode is
used by the posmap ablation benchmark to show the AB-ORAM conclusions
survive position-map realism.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple


class RecursivePosMap:
    """Cost model of a recursive position map behind a PLB."""

    def __init__(
        self,
        n_blocks: int,
        plb_entries: int = 4096,
        fanout: int = 16,
        onchip_entries: int = 131072,
    ) -> None:
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if plb_entries < 1:
            raise ValueError("plb_entries must be >= 1")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        if onchip_entries < 1:
            raise ValueError("onchip_entries must be >= 1")
        self.n_blocks = n_blocks
        self.fanout = fanout
        self.onchip_entries = onchip_entries
        self.plb_entries = plb_entries
        # PM level k holds ceil(n / fanout^(k+1)) blocks of mappings for
        # level k-1 (PM0 maps user blocks). Recursion stops once a
        # level's *entries* fit on-chip.
        self.depth = 0
        entries = n_blocks
        while entries > onchip_entries:
            self.depth += 1
            entries = (entries + fanout - 1) // fanout
        self._plb: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.accesses = 0

    def _touch(self, key: Tuple[int, int]) -> bool:
        """LRU lookup+insert; returns True on hit."""
        if key in self._plb:
            self._plb.move_to_end(key)
            return True
        self._plb[key] = None
        if len(self._plb) > self.plb_entries:
            self._plb.popitem(last=False)
        return False

    def access(self, block: int) -> int:
        """PM-block fetches needed before ``block``'s leaf is known.

        Walks PM0 upward; the first PLB hit (or the on-chip root level)
        ends the walk -- levels above a cached block are implied by it,
        which is the PLB's point. Fetched blocks enter the PLB.
        """
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range")
        self.accesses += 1
        needed: List[Tuple[int, int]] = []
        index = block
        for level in range(self.depth):
            index //= self.fanout
            needed.append((level, index))
        fetches = 0
        # Search nearest-first: if PM0's block is cached we're done.
        miss_run: List[Tuple[int, int]] = []
        for key in needed:
            if self._touch(key):
                self.hits += 1
                break
            miss_run.append(key)
        fetches = len(miss_run)
        self.misses += fetches
        return fetches

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
