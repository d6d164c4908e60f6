"""Unit tests for the stash (repro.oram.stash)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pick_for_bucket

from repro.oram.stash import Stash, StashOverflowError


class TestBasics:
    def test_empty(self):
        s = Stash(10)
        assert s.occupancy == 0
        assert 3 not in s

    def test_add_and_contains(self):
        s = Stash(10)
        s.add(3, 7)
        assert 3 in s
        assert dict(s.blocks())[3] == 7
        assert s.occupancy == 1

    def test_add_updates_leaf(self):
        s = Stash(10)
        s.add(3, 7)
        s.add(3, 9)
        assert dict(s.blocks())[3] == 9
        assert s.occupancy == 1

    def test_remove(self):
        s = Stash(10)
        s.add(3, 7)
        assert dict(s.blocks())[3] == 7
        s.remove_many([3])
        assert 3 not in s

    def test_remove_missing_raises(self):
        s = Stash(10)
        with pytest.raises(KeyError):
            s.remove_many([3])

    def test_remap(self):
        s = Stash(10)
        s.add(3, 7)
        s.remap(3, 1)
        assert dict(s.blocks())[3] == 1

    def test_remap_missing_raises(self):
        s = Stash(10)
        with pytest.raises(KeyError):
            s.remap(3, 1)

    def test_negative_block_rejected(self):
        s = Stash(10)
        with pytest.raises(ValueError):
            s.add(-1, 0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Stash(0)


class TestOverflowAndPeak:
    def test_overflow_raises(self):
        s = Stash(2)
        s.add(0, 0)
        s.add(1, 0)
        with pytest.raises(StashOverflowError):
            s.add(2, 0)
        assert s.overflow_events == 1

    def test_peak_tracks_maximum(self):
        s = Stash(10)
        for i in range(5):
            s.add(i, 0)
        s.remove_many(range(5))
        assert s.peak_occupancy == 5
        assert s.occupancy == 0

    def test_total_inserts_counts_updates(self):
        s = Stash(10)
        s.add(1, 0)
        s.add(1, 1)
        assert s.total_inserts == 2


class TestCandidates:
    """``pick_for_bucket``, the per-bucket picker ``pick_path``
    reproduces (``conftest``): in a 4-level tree the bucket at ``position`` of level ``3 - shift`` may
    hold a block iff ``leaf >> shift == position``."""

    def test_same_leaf_block_is_deepest(self):
        s = Stash(10)
        s.add(1, 5)
        # The block's own leaf bucket takes it ...
        assert pick_for_bucket(s, 5, 0, 4) == [1]
        # ... as does every ancestor on its path, and no other bucket.
        assert pick_for_bucket(s, 5 >> 1, 1, 4) == [1]
        assert pick_for_bucket(s, 0, 3, 4) == [1]
        assert pick_for_bucket(s, 4, 0, 4) == []
        assert pick_for_bucket(s, (5 >> 1) ^ 1, 1, 4) == []

    def test_min_level_filters(self):
        s = Stash(10)
        s.add(1, 0)   # leaf 0
        s.add(2, 7)   # opposite half for evict leaf 0
        # Level 1 on leaf 0's path (position 0): path membership only.
        assert pick_for_bucket(s, 0, 2, 4) == [1]
        # The root holds either.
        assert pick_for_bucket(s, 0, 3, 4) == [1, 2]

    def test_sorted_deepest_first(self):
        """Refilling leaf to root, each block lands in the deepest
        bucket of the eviction path (leaf 0) its own path crosses."""
        s = Stash(10)
        s.add(3, 4)
        s.add(2, 1)
        s.add(1, 0)
        placed = {}
        for shift in range(4):           # leaf level first
            got = pick_for_bucket(s, 0 >> shift, shift, 4)
            for block in got:
                placed[block] = 3 - shift
            s.remove_many(got)
        assert placed == {1: 3, 2: 2, 3: 0}

    def test_limit(self):
        s = Stash(10)
        for i in (4, 2, 5, 0, 3, 1):
            s.add(i, 0)
        # Capacity cuts the scan off, in insertion order.
        assert pick_for_bucket(s, 0, 0, 3) == [4, 2, 5]
        assert pick_for_bucket(s, 0, 0, 0) == []
        assert pick_for_bucket(s, 0, 0, 9) == [4, 2, 5, 0, 3, 1]

    def test_blocks_iteration(self):
        s = Stash(10)
        s.add(1, 2)
        s.add(3, 4)
        assert dict(s.blocks()) == {1: 2, 3: 4}


class TestPickPath:
    """``pick_path`` returns what the per-bucket greedy did: one
    ``pick_for_bucket`` per bucket, leaf to root, each bucket's picks
    removed before the next bucket scans -- the way the write phase
    removes them."""

    @staticmethod
    def _greedy(stash, leaf, caps, height):
        """The reference, on a copy: insertion order is the stash's."""
        ref = Stash(stash.capacity)
        for block, bl in stash.blocks():
            ref.add(block, bl)
        picks = []
        for i, cap in enumerate(caps):
            shift = height + i
            got = pick_for_bucket(ref, leaf >> shift, shift, cap)
            ref.remove_many(got)
            picks.append(got)
        return picks

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        levels=st.integers(1, 12),
        size=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["path", "one", "chain"]),
        data=st.data(),
    )
    def test_matches_the_per_bucket_greedy(self, levels, size, seed, shape,
                                           data):
        rng = np.random.default_rng(seed)
        n_leaves = 1 << (levels - 1)
        s = Stash(1000)
        # Distinct blocks in a random insertion order; re-adding some
        # moves nothing, removing and re-adding moves them to the end.
        blocks = rng.permutation(5 * size + 1)[:size].tolist()
        for block in blocks:
            s.add(block, int(rng.integers(n_leaves)))
        for block in blocks[: size // 4]:
            if rng.random() < 0.5:
                leaf = dict(s.blocks())[block]
                s.remove_many([block])
                s.add(block, leaf)
        leaf = data.draw(st.integers(0, n_leaves - 1))
        if shape == "path":
            height, n = 0, levels
        elif shape == "one":
            height, n = data.draw(st.integers(0, levels - 1)), 1
        else:
            height = data.draw(st.integers(0, levels - 1))
            n = data.draw(st.integers(1, levels - height))
        caps = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        before = list(s.blocks())
        picks = s.pick_path(leaf, caps, height)
        assert list(s.blocks()) == before       # nothing removed
        assert picks == self._greedy(s, leaf, caps, height)
        # The write phase's removals, between levels, leave exactly the
        # reference's leftovers.
        for got in picks:
            s.remove_many(got)
        placed = {b for got in picks for b in got}
        assert list(s.blocks()) == [(b, bl) for b, bl in before
                                    if b not in placed]

    def test_one_bucket_under_any_of_its_leaves(self):
        """A lone bucket's picks do not depend on which leaf under it
        names it (4 levels: level 1, position 1, leaves 4..7)."""
        s = Stash(20)
        for block, bl in enumerate((5, 1, 7, 4, 6, 2, 4)):
            s.add(block, bl)
        assert {tuple(s.pick_path(leaf, [3], 2)[0])
                for leaf in range(4, 8)} == {(0, 2, 3)}
