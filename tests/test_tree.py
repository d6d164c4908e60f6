"""Unit tests for binary-tree addressing (repro.oram.tree)."""

import pytest

from repro.oram import tree


class TestBucketId:
    def test_root(self):
        assert tree.bucket_id(0, 0) == 0

    def test_level_one(self):
        assert tree.bucket_id(1, 0) == 1
        assert tree.bucket_id(1, 1) == 2

    def test_level_three(self):
        assert tree.bucket_id(3, 0) == 7
        assert tree.bucket_id(3, 7) == 14

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            tree.bucket_id(2, 4)

    def test_negative_level(self):
        with pytest.raises(ValueError):
            tree.bucket_id(-1, 0)

    def test_roundtrip_all_small(self):
        for level in range(6):
            for pos in range(1 << level):
                b = tree.bucket_id(level, pos)
                assert tree.level_of(b) == level
                assert tree.position_of(b) == pos


class TestLevelOf:
    def test_root(self):
        assert tree.level_of(0) == 0

    def test_boundaries(self):
        # Last bucket of level l is 2^(l+1) - 2; first is 2^l - 1.
        for lv in range(1, 10):
            assert tree.level_of((1 << lv) - 1) == lv
            assert tree.level_of((1 << (lv + 1)) - 2) == lv

    def test_negative(self):
        with pytest.raises(ValueError):
            tree.level_of(-1)


class TestParentChild:
    def test_parent_of_children(self):
        for b in range(1, 127):
            left, right = tree.children_of(tree.parent_of(b))
            assert b in (left, right)

    def test_children_of_root(self):
        assert tree.children_of(0) == (1, 2)

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            tree.parent_of(0)


class TestPathBuckets:
    def test_length_equals_levels(self):
        assert len(tree.path_buckets(0, 5)) == 5

    def test_root_always_first(self):
        for leaf in range(16):
            assert tree.path_buckets(leaf, 5)[0] == 0

    def test_leaf_bucket_last(self):
        levels = 5
        for leaf in range(16):
            assert tree.path_buckets(leaf, levels)[-1] == tree.bucket_id(4, leaf)

    def test_consecutive_parent_links(self):
        path = tree.path_buckets(11, 6)
        for parent, child in zip(path, path[1:]):
            assert tree.parent_of(child) == parent

    def test_leaf_out_of_range(self):
        with pytest.raises(ValueError):
            tree.path_buckets(16, 5)
        with pytest.raises(ValueError):
            tree.path_buckets(-1, 5)

    def test_two_level_tree(self):
        assert tree.path_buckets(0, 2) == [0, 1]
        assert tree.path_buckets(1, 2) == [0, 2]


class TestBucketOnPath:
    def test_all_path_buckets_are_on_path(self):
        levels = 6
        for leaf in (0, 13, 31):
            for b in tree.path_buckets(leaf, levels):
                assert tree.bucket_on_path(b, leaf, levels)

    def test_off_path(self):
        levels = 4
        # leaf 0's path is buckets 0,1,3,7; bucket 2 is off it.
        assert not tree.bucket_on_path(2, 0, levels)
        assert not tree.bucket_on_path(8, 0, levels)

    def test_too_deep_bucket(self):
        assert not tree.bucket_on_path(1 << 10, 0, 4)


class TestIntersectionLevel:
    def test_same_leaf(self):
        assert tree.intersection_level(5, 5, 6) == 5

    def test_adjacent_leaves(self):
        # Leaves 0 and 1 share everything but the last level.
        assert tree.intersection_level(0, 1, 6) == 4

    def test_opposite_halves(self):
        levels = 6
        assert tree.intersection_level(0, (1 << (levels - 1)) - 1, levels) == 0

    def test_matches_path_prefix(self):
        levels = 7
        for a, b in [(0, 63), (10, 42), (33, 35), (12, 12)]:
            pa = tree.path_buckets(a, levels)
            pb = tree.path_buckets(b, levels)
            common = sum(1 for x, y in zip(pa, pb) if x == y)
            assert tree.intersection_level(a, b, levels) == common - 1

    def test_symmetry(self):
        for a in range(8):
            for b in range(8):
                assert (tree.intersection_level(a, b, 4)
                        == tree.intersection_level(b, a, 4))


class TestBitReverse:
    def test_zero(self):
        assert tree.bit_reverse(0, 8) == 0

    def test_one(self):
        assert tree.bit_reverse(1, 4) == 8

    def test_palindrome(self):
        assert tree.bit_reverse(0b1001, 4) == 0b1001

    def test_involution(self):
        for v in range(64):
            assert tree.bit_reverse(tree.bit_reverse(v, 6), 6) == v


class TestReverseLexicographicOrder:
    def test_full_round_covers_all_paths(self):
        levels = 6
        leaves = [tree.reverse_lexicographic_leaf(g, levels)
                  for g in range(1 << (levels - 1))]
        assert sorted(leaves) == list(range(1 << (levels - 1)))

    def test_wraps_around(self):
        levels = 5
        period = 1 << (levels - 1)
        assert (tree.reverse_lexicographic_leaf(3, levels)
                == tree.reverse_lexicographic_leaf(3 + period, levels))

    def test_consecutive_evictions_alternate_halves(self):
        """Adjacent evictions diverge at the root (the order's point)."""
        levels = 6
        half = 1 << (levels - 2)
        prev = tree.reverse_lexicographic_leaf(0, levels)
        for g in range(1, 16):
            cur = tree.reverse_lexicographic_leaf(g, levels)
            assert (prev < half) != (cur < half)
            prev = cur

    def test_two_level_tree(self):
        assert tree.reverse_lexicographic_leaf(0, 2) == 0
        assert tree.reverse_lexicographic_leaf(1, 2) == 1


def deepest_common_bucket(leaf_a, leaf_b, levels):
    """The bucket both leaves' paths hold at their intersection level
    (what the refill greedy's ``leaf >> shift == position`` selects)."""
    lv = tree.intersection_level(leaf_a, leaf_b, levels)
    return tree.path_buckets(leaf_a, levels)[lv]


class TestDeepestCommonBucket:
    def test_same_leaf_gives_leaf_bucket(self):
        assert deepest_common_bucket(3, 3, 4) == tree.bucket_id(3, 3)

    def test_opposite_halves_give_root(self):
        assert deepest_common_bucket(0, 7, 4) == 0

    def test_on_both_paths(self):
        levels = 6
        for a, b in [(0, 31), (4, 6), (20, 21)]:
            d = deepest_common_bucket(a, b, levels)
            assert tree.bucket_on_path(d, a, levels)
            assert tree.bucket_on_path(d, b, levels)
            # ... and it is the deepest such: one level down they part.
            lv = tree.level_of(d)
            assert (tree.path_buckets(a, levels)[lv + 1]
                    != tree.path_buckets(b, levels)[lv + 1])
