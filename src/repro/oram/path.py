"""Classic Path ORAM (Stefanov et al.), the substrate Ring ORAM refines.

Kept in the library for three reasons: (i) the paper frames Ring ORAM's
bandwidth advantage against it (readPath fetches 1 block per bucket vs.
Path ORAM's Z'), (ii) IR-ORAM -- one of the comparators -- was proposed
on Path ORAM, and (iii) it provides an independent, much simpler
protocol against which the shared substrate (tree addressing, stash,
position map) is cross-validated in tests.

Every access performs the canonical two-phase path access: read all
``Z`` blocks of every bucket on the target's path into the stash, remap
the target, then write the path back root-to-leaf... actually
leaf-to-root with greedy deepest placement, padding with dummies.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.oram import tree as tree_mod
from repro.oram.bucket import BucketStore
from repro.oram.config import OramConfig, uniform_geometry
from repro.oram.draws import Draws
from repro.oram.position_map import PositionMap
from repro.oram.stash import Stash
from repro.oram.stats import CountingSink, MemorySink, OpKind


def path_oram_config(
    levels: int,
    z: int = 4,
    stash_capacity: int = 300,
    treetop_levels: int = 0,
    utilization: float = 0.5,
    name: str = "path-oram",
) -> OramConfig:
    """Standard Path ORAM configuration: Z all-purpose slots per bucket."""
    return OramConfig(
        levels=levels,
        geometry=uniform_geometry(levels, z_real=z, s_reserved=0),
        treetop_levels=treetop_levels,
        stash_capacity=stash_capacity,
        utilization=utilization,
        name=name,
    )


class PathOram:
    """A functional Path ORAM instance."""

    def __init__(
        self,
        cfg: OramConfig,
        sink: Optional[MemorySink] = None,
        seed: int = 0,
    ) -> None:
        if any(g.s_reserved or g.overlap or g.remote_extension for g in cfg.geometry):
            raise ValueError("Path ORAM buckets have no reserved dummies/overlap")
        self.cfg = cfg
        self.sink = sink if sink is not None else CountingSink(cfg.levels)
        self.draws = Draws(seed)
        self.store = BucketStore(cfg)
        self.stash = Stash(cfg.stash_capacity)
        self.posmap = PositionMap(cfg.n_real_blocks, cfg.n_leaves, self.draws)
        self._data: Dict[int, Any] = {}
        self.accesses = 0

    def access(self, block: int, write: bool = False, value: Any = None) -> Any:
        """One Path ORAM access: read path, remap, write path."""
        if not 0 <= block < self.cfg.n_real_blocks:
            raise ValueError(
                f"block {block} out of range [0, {self.cfg.n_real_blocks})"
            )
        self.accesses += 1
        leaf = self.posmap.lookup(block)
        buckets = tree_mod.path_buckets(leaf, self.cfg.levels)
        self._read_phase(buckets)
        new_leaf = self.posmap.remap(block)
        if block in self.stash:
            self.stash.remap(block, new_leaf)
        else:
            self.stash.add(block, new_leaf)
        if write:
            self._data[block] = value
        result = self._data.get(block)
        self._write_phase(buckets, leaf)
        return result

    def _read_phase(self, buckets: Sequence[int]) -> None:
        cfg = self.cfg
        self.sink.begin_op(OpKind.READ_PATH)
        for b in buckets:
            lv = self.store.level(b)
            onchip = lv < cfg.treetop_levels
            self.sink.data_access_many(
                [(b, slot, lv, onchip, False)
                 for slot in range(self.store.z_phys(b))],
                write=False,
            )
            for slot in self.store.valid_real_slots(b):
                blk = self.store.consume(b, int(slot))
                self.stash.add(blk, self.posmap.peek(blk))
        self.sink.end_op()

    def _write_phase(self, buckets: Sequence[int], leaf: int) -> None:
        cfg = self.cfg
        self.sink.begin_op(OpKind.EVICT_PATH)
        leaf_first = buckets[::-1]
        picks = self.stash.pick_path(
            leaf, [self.store.z_phys(b) for b in leaf_first]
        )
        for b, chosen in zip(leaf_first, picks):
            lv = self.store.level(b)
            onchip = lv < cfg.treetop_levels
            self.stash.remove_many(chosen)
            written = self.store.refresh(b, chosen)
            self.sink.data_access_many(
                [(b, slot, lv, onchip, False) for slot in written],
                write=True,
            )
        self.sink.end_op()

    def check_invariants(self) -> None:
        """Every mapped block in exactly one place, on its path."""
        seen: Dict[int, str] = {blk: "stash" for blk, _ in self.stash.blocks()}
        rows = self.store.table("slots")
        for b, s in np.argwhere(rows >= 0):
            blk = int(rows[b, s])
            if blk in seen:
                raise AssertionError(f"block {blk} duplicated")
            seen[blk] = f"bucket {int(b)}"
            leaf = self.posmap.peek(blk)
            if not tree_mod.bucket_on_path(int(b), leaf, self.cfg.levels):
                raise AssertionError(f"block {blk} off its path")
        mapped = set(int(x) for x in self.posmap.mapped_blocks())
        missing = mapped.difference(seen)
        if missing:
            raise AssertionError(f"mapped blocks lost: {sorted(missing)[:5]}")
