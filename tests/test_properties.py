"""Property-based tests (hypothesis) over core data structures and the
ORAM protocol invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import tiny_ab_config, tiny_config

from repro.core.ab_oram import build_oram
from repro.oram import tree
from repro.oram.config import BucketGeometry, OramConfig, uniform_geometry
from repro.oram.stash import Stash
from repro.sim.results import geomean

LEVELS = st.integers(min_value=2, max_value=12)


class TestTreeProperties:
    @given(levels=LEVELS, data=st.data())
    def test_path_is_ancestor_chain(self, levels, data):
        leaf = data.draw(st.integers(0, (1 << (levels - 1)) - 1))
        path = tree.path_buckets(leaf, levels)
        assert path[0] == 0
        for parent, child in zip(path, path[1:]):
            assert tree.parent_of(child) == parent

    @given(levels=LEVELS, data=st.data())
    def test_bucket_on_path_iff_in_path_list(self, levels, data):
        leaf = data.draw(st.integers(0, (1 << (levels - 1)) - 1))
        bucket = data.draw(st.integers(0, (1 << levels) - 2))
        on = tree.bucket_on_path(bucket, leaf, levels)
        assert on == (bucket in tree.path_buckets(leaf, levels))

    @given(levels=LEVELS, data=st.data())
    def test_intersection_level_bounds(self, levels, data):
        n = 1 << (levels - 1)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        lv = tree.intersection_level(a, b, levels)
        assert 0 <= lv <= levels - 1
        if a == b:
            assert lv == levels - 1

    @given(value=st.integers(0, 2**16 - 1), bits=st.integers(1, 16))
    def test_bit_reverse_involution(self, value, bits):
        value %= 1 << bits
        assert tree.bit_reverse(tree.bit_reverse(value, bits), bits) == value

    @given(levels=LEVELS)
    def test_reverse_lex_is_permutation(self, levels):
        leaves = [tree.reverse_lexicographic_leaf(g, levels)
                  for g in range(1 << (levels - 1))]
        assert sorted(leaves) == list(range(1 << (levels - 1)))

    @given(levels=LEVELS, g=st.integers(0, 10**6))
    def test_reverse_lex_leaf_in_range(self, levels, g):
        leaf = tree.reverse_lexicographic_leaf(g, levels)
        assert 0 <= leaf < (1 << (levels - 1))


class TestGeometryProperties:
    @given(
        z_real=st.integers(1, 16),
        s=st.integers(0, 16),
        overlap=st.integers(0, 16),
        ext=st.integers(0, 4),
    )
    def test_sustain_identities(self, z_real, s, overlap, ext):
        if overlap > z_real:
            with pytest.raises(ValueError):
                BucketGeometry(z_real, s, overlap, ext)
            return
        g = BucketGeometry(z_real, s, overlap, ext)
        assert g.z_total == z_real + s
        assert g.sustain == g.sustain_unextended + ext
        assert g.sustain_unextended <= g.z_total  # readability guarantee

    @given(levels=st.integers(2, 16), z_real=st.integers(1, 8),
           s=st.integers(0, 8))
    def test_tree_bytes_formula(self, levels, z_real, s):
        cfg = OramConfig(levels=levels,
                         geometry=uniform_geometry(levels, z_real, s))
        assert cfg.tree_bytes == ((1 << levels) - 1) * (z_real + s) * 64
        assert 0 < cfg.space_utilization <= 1.0


class TestStashProperties:
    @given(ops=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 15), st.booleans()),
        max_size=60,
    ))
    def test_stash_mirrors_a_dict(self, ops):
        stash = Stash(1000)
        shadow = {}
        for block, leaf, remove in ops:
            if remove and block in shadow:
                assert stash.remove(block) == shadow.pop(block)
            else:
                stash.add(block, leaf)
                shadow[block] = leaf
            assert len(stash) == len(shadow)
            for blk, lf in shadow.items():
                assert stash.leaf_of(blk) == lf


class TestProtocolProperties:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10**6),
           accesses=st.integers(20, 120),
           ab=st.booleans())
    def test_no_block_lost_under_random_traffic(self, seed, accesses, ab):
        """The fundamental ORAM invariant, fuzzed: every mapped block
        is in exactly one place and on its mapped path."""
        cfg = tiny_ab_config(levels=5) if ab else tiny_config(levels=5)
        oram = build_oram(cfg, seed=seed, store_data=True)
        rng = np.random.default_rng(seed)
        shadow = {}
        for _ in range(accesses):
            blk = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                val = int(rng.integers(1000))
                oram.write(blk, val)
                shadow[blk] = val
            else:
                assert oram.read(blk) == shadow.get(blk)
        oram.check_invariants()

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10**6))
    def test_counts_bounded_by_sustain(self, seed):
        cfg = tiny_ab_config(levels=5)
        oram = build_oram(cfg, seed=seed)
        oram.warm_fill()
        rng = np.random.default_rng(seed ^ 0xABCD)
        for _ in range(100):
            oram.access(int(rng.integers(cfg.n_real_blocks)))
            assert (oram.store.count <= oram.store.sustain).all()

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10**6))
    def test_slot_status_consistent_with_contents(self, seed):
        """IN_USE slots never expose contents to their host bucket:
        they must read as CONSUMED in the host's row."""
        from repro.oram.bucket import SlotStatus
        cfg = tiny_ab_config(levels=5)
        oram = build_oram(cfg, seed=seed)
        oram.warm_fill()
        rng = np.random.default_rng(seed)
        for _ in range(80):
            oram.access(int(rng.integers(cfg.n_real_blocks)))
        in_use = np.argwhere(oram.store.status == SlotStatus.IN_USE)
        for b, s in in_use:
            assert oram.store.slots[b, s] == -2  # CONSUMED
        oram.check_invariants()

    @pytest.mark.parametrize("corruption", [
        "tally", "host-not-in-use", "host-shared", "host-is-renter",
        "n-active", "deadq-duplicate", "deadq-lost", "queued-untracked",
    ])
    def test_check_invariants_sees_bucket_state_corruption(self, corruption):
        """``check_invariants`` covers the status tallies, rental
        ownership and DeadQ validity: each corrupted by hand."""
        from repro.oram.bucket import ST_DEAD, ST_QUEUED, UNALLOCATED
        cfg = tiny_ab_config(levels=6)
        oram = build_oram(cfg, seed=3)
        oram.warm_fill()
        rng = np.random.default_rng(3)
        for _ in range(150):
            oram.access(int(rng.integers(cfg.n_real_blocks)))
        oram.check_invariants()
        store, ext = oram.store, oram.ext
        renters = np.argwhere(store.slots[:, store.z_max:] != UNALLOCATED)
        assert len(renters) >= 2
        (r1, c1), (r2, c2) = renters[0], renters[1]
        lv = cfg.levels - 1
        queue = ext.queues.get(lv)
        qb, qs, qg = next(
            e for e in queue.entries()
            if store.status[e[0], e[1]] == ST_QUEUED
            and store.generation[e[0], e[1]] == e[2]
        )
        if corruption == "tally":
            store.dead_count[cfg.n_buckets - 1] += 1
        elif corruption == "host-not-in-use":
            store.status[ext.host_bucket[r1, c1], ext.host_slot[r1, c1]] = ST_DEAD
            store.dead_count[ext.host_bucket[r1, c1]] += 1
            store.in_use_count[ext.host_bucket[r1, c1]] -= 1
        elif corruption == "host-shared":
            ext.host_bucket[r2, c2] = ext.host_bucket[r1, c1]
            ext.host_slot[r2, c2] = ext.host_slot[r1, c1]
        elif corruption == "host-is-renter":
            ext.host_bucket[r1, c1] = r1
        elif corruption == "n-active":
            ext.n_active[r1] += 1
        elif corruption == "deadq-duplicate":
            queue.push(qb, qs, qg)
        elif corruption == "deadq-lost":
            store.generation[qb, qs] += 1
        else:
            store.status[0, 0] = ST_QUEUED
            store.queued_count[0] += 1
        with pytest.raises(AssertionError):
            oram.check_invariants()


class TestAggregationProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1,
                    max_size=20))
    def test_geomean_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) * 0.999 <= g <= max(values) * 1.001

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1,
                    max_size=20), st.floats(min_value=0.01, max_value=10))
    def test_geomean_scale_equivariant(self, values, k):
        a = geomean([v * k for v in values])
        b = geomean(values) * k
        assert a == pytest.approx(b, rel=1e-6)
