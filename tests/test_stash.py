"""Unit tests for the stash (repro.oram.stash)."""

import pytest

from repro.oram.stash import Stash, StashOverflowError


class TestBasics:
    def test_empty(self):
        s = Stash(10)
        assert len(s) == 0
        assert 3 not in s

    def test_add_and_contains(self):
        s = Stash(10)
        s.add(3, 7)
        assert 3 in s
        assert s.leaf_of(3) == 7
        assert s.occupancy == 1

    def test_add_updates_leaf(self):
        s = Stash(10)
        s.add(3, 7)
        s.add(3, 9)
        assert s.leaf_of(3) == 9
        assert s.occupancy == 1

    def test_remove(self):
        s = Stash(10)
        s.add(3, 7)
        assert s.remove(3) == 7
        assert 3 not in s

    def test_remove_missing_raises(self):
        s = Stash(10)
        with pytest.raises(KeyError):
            s.remove(3)

    def test_remap(self):
        s = Stash(10)
        s.add(3, 7)
        s.remap(3, 1)
        assert s.leaf_of(3) == 1

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
        for i in range(5):
            s.remove(i)
        assert s.peak_occupancy == 5
        assert s.occupancy == 0

    def test_total_inserts_counts_updates(self):
        s = Stash(10)
        s.add(1, 0)
        s.add(1, 1)
        assert s.total_inserts == 2


class TestCandidates:
    """``pick_for_bucket``, the picker the reshuffle refill uses: in a
    4-level tree the bucket at ``position`` of level ``3 - shift`` may
    hold a block iff ``leaf >> shift == position``."""

    def test_same_leaf_block_is_deepest(self):
        s = Stash(10)
        s.add(1, 5)
        # The block's own leaf bucket takes it ...
        assert s.pick_for_bucket(5, 0, 4) == [1]
        # ... as does every ancestor on its path, and no other bucket.
        assert s.pick_for_bucket(5 >> 1, 1, 4) == [1]
        assert s.pick_for_bucket(0, 3, 4) == [1]
        assert s.pick_for_bucket(4, 0, 4) == []
        assert s.pick_for_bucket((5 >> 1) ^ 1, 1, 4) == []

    def test_min_level_filters(self):
        s = Stash(10)
        s.add(1, 0)   # leaf 0
        s.add(2, 7)   # opposite half for evict leaf 0
        # Level 1 on leaf 0's path (position 0): path membership only.
        assert s.pick_for_bucket(0, 2, 4) == [1]
        # The root holds either.
        assert s.pick_for_bucket(0, 3, 4) == [1, 2]

    def test_sorted_deepest_first(self):
        """Refilling leaf to root, each block lands in the deepest
        bucket of the eviction path (leaf 0) its own path crosses."""
        s = Stash(10)
        s.add(3, 4)
        s.add(2, 1)
        s.add(1, 0)
        placed = {}
        for shift in range(4):           # leaf level first
            for block in s.pick_for_bucket(0 >> shift, shift, 4):
                placed[block] = 3 - shift
                s.remove(block)
        assert placed == {1: 3, 2: 2, 3: 0}

    def test_limit(self):
        s = Stash(10)
        for i in (4, 2, 5, 0, 3, 1):
            s.add(i, 0)
        # Capacity cuts the scan off, in insertion order.
        assert s.pick_for_bucket(0, 0, 3) == [4, 2, 5]
        assert s.pick_for_bucket(0, 0, 0) == []
        assert s.pick_for_bucket(0, 0, 9) == [4, 2, 5, 0, 3, 1]

    def test_blocks_iteration(self):
        s = Stash(10)
        s.add(1, 2)
        s.add(3, 4)
        assert dict(s.blocks()) == {1: 2, 3: 4}
