"""The oblivious partition map: keyed-PRF routing of blocks to shards.

A fleet of N subtrees is only as oblivious as its routing. The
partition map assigns every logical identity (a block id or a KV key)
to one shard with a keyed pseudorandom function: SHA-256 over a
seed-derived salt plus the identity, reduced mod N. The adversary
watching shard traffic learns exactly which *shard* each access went
to. That choice is a PRF of the identity, so it hides *which* key was
accessed, but not that a key repeats: a key read k times shows up as
k hits on one shard, which i.i.d. uniform shard choices would produce
with probability N^-(k-1). ROADMAP item 6 measures this leak and
tracks the fix (see docs/design/sharding.md for the argument).

Determinism discipline: the map is a pure function of ``(num_shards,
seed)``. Every harness that partitions work -- the sharded simulator,
the serving fleet, the capacity benchmark -- rebuilds the identical
map from those two integers, so per-shard work never depends on which
process computed the split.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np


class PartitionMap:
    """Keyed-PRF assignment of identities to ``num_shards`` buckets."""

    def __init__(self, num_shards: int, seed: int = 0) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        self.seed = int(seed)
        self._salt = hashlib.sha256(
            b"repro/shard-map|" + str(self.seed).encode()
        ).digest()

    # ------------------------------------------------------------- routing

    def shard_of_bytes(self, key: bytes) -> int:
        """Shard of one byte-string identity (KV keys)."""
        digest = hashlib.sha256(self._salt + key).digest()
        return int.from_bytes(digest[:8], "big") % self.num_shards

    def shard_of_block(self, block: int) -> int:
        """Shard of one logical block id."""
        return self.shard_of_bytes(b"b|%d" % block)

    # ---------------------------------------------------------- bulk forms

    def split_blocks(self, n_blocks: int) -> Tuple[np.ndarray, np.ndarray]:
        """Partition the dense id range ``[0, n_blocks)``.

        Returns ``(shard_ids, local_ids)``: ``shard_ids[b]`` is block
        ``b``'s shard and ``local_ids[b]`` its dense rank *within* that
        shard (assignment order = global id order), so every shard sees
        a compact local address space it can host in a smaller tree.
        The split covers the whole block universe -- not just the ids a
        particular trace touches -- so shard membership is a property
        of the address, never of the workload.
        """
        if n_blocks < 0:
            raise ValueError("n_blocks must be >= 0")
        shard_ids = np.fromiter(
            (self.shard_of_block(b) for b in range(n_blocks)),
            dtype=np.int64, count=n_blocks,
        )
        local_ids = np.zeros(n_blocks, dtype=np.int64)
        counts = np.zeros(self.num_shards, dtype=np.int64)
        for b in range(n_blocks):
            s = shard_ids[b]
            local_ids[b] = counts[s]
            counts[s] += 1
        return shard_ids, local_ids
