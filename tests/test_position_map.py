"""Unit tests for the position map (repro.oram.position_map)."""

import numpy as np
import pytest

from repro.oram.draws import Draws
from repro.oram.position_map import UNMAPPED, PositionMap


@pytest.fixture
def pm(rng):
    return PositionMap(n_blocks=100, n_leaves=16, draws=Draws(rng))


class TestLookup:
    def test_first_lookup_assigns_random_leaf(self, pm):
        leaf = pm.lookup(5)
        assert 0 <= leaf < 16
        assert pm.peek(5) == leaf
        assert pm.mapped_blocks().tolist() == [5]

    def test_lookup_is_stable(self, pm):
        assert pm.lookup(5) == pm.lookup(5)

    def test_peek_unmapped(self, pm):
        assert pm.peek(7) == UNMAPPED
        assert 7 not in pm.mapped_blocks()

    def test_peek_does_not_map(self, pm):
        pm.peek(7)
        assert pm.peek(7) == UNMAPPED
        assert pm.mapped_blocks().size == 0

    def test_lookup_counts(self, pm):
        pm.lookup(1)
        pm.lookup(1)
        assert pm.lookups == 2

    def test_out_of_range(self, pm):
        with pytest.raises(ValueError):
            pm.lookup(100)
        with pytest.raises(ValueError):
            pm.lookup(-1)


class TestRemap:
    def test_remap_changes_distribution(self, pm):
        """Remaps are uniform: over many remaps every leaf appears."""
        seen = {pm.remap(0) for _ in range(400)}
        assert seen == set(range(16))

    def test_remap_counts(self, pm):
        pm.remap(0)
        pm.remap(0)
        assert pm.remaps == 2

    def test_set_leaf(self, pm):
        pm.set_leaf(3, 9)
        assert pm.peek(3) == 9

    def test_set_leaf_validates(self, pm):
        with pytest.raises(ValueError):
            pm.set_leaf(3, 16)


class TestMappedBlocks:
    def test_initially_empty(self, pm):
        assert len(pm.mapped_blocks()) == 0

    def test_tracks_touched_blocks(self, pm):
        pm.lookup(3)
        pm.set_leaf(7, 0)
        assert set(pm.mapped_blocks()) == {3, 7}

    def test_len(self, pm):
        assert pm.n_blocks == 100


class TestConstruction:
    def test_rejects_zero_blocks(self, rng):
        with pytest.raises(ValueError):
            PositionMap(0, 4, Draws(rng))

    def test_rejects_zero_leaves(self, rng):
        with pytest.raises(ValueError):
            PositionMap(4, 0, Draws(rng))

    def test_uniformity_of_first_touch(self, rng):
        pm = PositionMap(4000, 8, Draws(rng))
        leaves = [pm.lookup(i) for i in range(4000)]
        counts = np.bincount(leaves, minlength=8)
        # Each leaf expects 500; allow generous tolerance.
        assert counts.min() > 350
        assert counts.max() < 650
