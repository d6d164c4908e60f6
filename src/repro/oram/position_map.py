"""The position map: block id -> current leaf label.

The paper keeps the position map on-chip (512KB PosMap + 64KB PLB,
Table III) rather than recursing, so lookups cost no memory traffic
here either. The map is numpy-backed to keep multi-million-block trees
affordable in a Python process.

A block whose entry is ``UNMAPPED`` has never been touched; the first
access assigns it a uniformly random leaf ("allocate on first touch"),
which matches how trace-driven ORAM studies warm their trees.
"""

from __future__ import annotations

import numpy as np

UNMAPPED = -1


class PositionMap:
    """Dense block -> leaf mapping with deferred random initialization."""

    def __init__(self, n_blocks: int, n_leaves: int, rng: np.random.Generator) -> None:
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        if n_leaves < 1:
            raise ValueError(f"n_leaves must be >= 1, got {n_leaves}")
        self.n_blocks = n_blocks
        self.n_leaves = n_leaves
        self._rng = rng
        self._leaf = np.full(n_blocks, UNMAPPED, dtype=np.int64)
        self.lookups = 0
        self.remaps = 0

    def __len__(self) -> int:
        return self.n_blocks

    def lookup(self, block: int) -> int:
        """Current leaf of ``block``, assigning a random one on first use."""
        self._check(block)
        self.lookups += 1
        leaf = int(self._leaf[block])
        if leaf == UNMAPPED:
            leaf = int(self._rng.integers(self.n_leaves))
            self._leaf[block] = leaf
        return leaf

    def peek(self, block: int) -> int:
        """Leaf of ``block`` without counting a lookup; UNMAPPED if untouched."""
        self._check(block)
        return int(self._leaf[block])

    def peek_many(self, blocks: np.ndarray) -> np.ndarray:
        """Leaves of several blocks at once (vectorized :meth:`peek`).

        Like ``peek``, does not count lookups; entries for untouched
        blocks come back ``UNMAPPED``. No per-element range check --
        callers pass ids read out of the tree, which are valid by
        construction.
        """
        return self._leaf[blocks]

    def remap(self, block: int) -> int:
        """Assign and return a fresh uniformly random leaf for ``block``."""
        self._check(block)
        leaf = int(self._rng.integers(self.n_leaves))
        self._leaf[block] = leaf
        self.remaps += 1
        return leaf

    def set_leaf(self, block: int, leaf: int) -> None:
        """Force a mapping (used by warm-fill initialization and tests)."""
        self._check(block)
        if not 0 <= leaf < self.n_leaves:
            raise ValueError(f"leaf {leaf} out of range")
        self._leaf[block] = leaf

    def mapped_blocks(self) -> np.ndarray:
        """Ids of all blocks that currently have a leaf assigned."""
        return np.nonzero(self._leaf != UNMAPPED)[0]

    def _check(self, block: int) -> None:
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range [0, {self.n_blocks})")
