"""Unit and behavioural tests for the Ring ORAM controller."""

import numpy as np
import pytest

from conftest import tiny_ab_config, tiny_config

from repro.core.remote import RemoteAllocator
from repro.oram.ring import RingOram
from repro.oram.stats import CountingSink, OpKind


def make_oram(cfg=None, seed=0, **kw):
    cfg = cfg or tiny_config()
    return RingOram(cfg, seed=seed, **kw)


class TestAccessBasics:
    def test_read_returns_written_value(self):
        oram = make_oram(store_data=True)
        oram.write(3, b"hello")
        assert oram.read(3) == b"hello"

    def test_overwrite(self):
        oram = make_oram(store_data=True)
        oram.write(3, 1)
        oram.write(3, 2)
        assert oram.read(3) == 2

    def test_unwritten_block_reads_none(self):
        oram = make_oram(store_data=True)
        assert oram.read(5) is None

    def test_many_blocks_roundtrip(self):
        oram = make_oram(store_data=True)
        n = min(40, oram.cfg.n_real_blocks)
        for i in range(n):
            oram.write(i, i * 11)
        for i in range(n):
            assert oram.read(i) == i * 11

    def test_block_out_of_range(self):
        oram = make_oram()
        with pytest.raises(ValueError):
            oram.access(oram.cfg.n_real_blocks)
        with pytest.raises(ValueError):
            oram.access(-1)

    def test_access_counts(self):
        oram = make_oram()
        for i in range(7):
            oram.access(i % 3)
        assert oram.online_accesses == 7

    def test_remap_changes_position(self):
        oram = make_oram(seed=5)
        oram.access(0)
        leaves = {oram.posmap.peek(0)}
        for _ in range(30):
            oram.access(0)
            leaves.add(oram.posmap.peek(0))
        assert len(leaves) > 3  # fresh uniform leaf each access


class TestMaintenanceScheduling:
    def test_evict_path_every_a_accesses(self):
        cfg = tiny_config(evict_rate=3)
        oram = make_oram(cfg)
        for i in range(9):
            oram.access(i % 5)
        assert oram.evict_counter == 3

    def test_evict_uses_reverse_lex_order(self):
        from repro.oram.tree import reverse_lexicographic_leaf
        cfg = tiny_config(evict_rate=1)
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink)
        for i in range(4):
            oram.access(i)
        assert oram.evict_counter == 4
        # Counter-derived leaves are the reverse-lex sequence by
        # construction; spot-check the helper stays in sync.
        assert reverse_lexicographic_leaf(0, cfg.levels) == 0

    def test_early_reshuffle_triggers_at_sustain(self):
        """A bucket read `sustain` times must be reshuffled."""
        oram = make_oram(seed=2)
        sustain = oram.cfg.geometry[0].sustain_unextended
        # The root is on every path: it saturates fastest.
        for i in range(sustain * 3):
            oram.access(i % oram.cfg.n_real_blocks)
            assert oram.store.count[0] < oram.store.sustain[0] + 1
        assert oram.store.reshuffles_by_level[0] > 0

    def test_counts_never_exceed_sustain_anywhere(self):
        oram = make_oram(seed=3)
        for i in range(120):
            oram.access((i * 13) % oram.cfg.n_real_blocks)
            over = np.nonzero(oram.store.count > oram.store.sustain)[0]
            assert over.size == 0


class TestOperationAccounting:
    def test_read_path_reads_one_block_per_offchip_bucket(self):
        cfg = tiny_config(treetop_levels=0)
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink)
        oram.access(0)
        c = sink.by_kind[OpKind.READ_PATH]
        assert c.ops == 1
        assert c.data_reads == cfg.levels

    def test_treetop_levels_do_not_touch_memory(self):
        cfg = tiny_config(treetop_levels=2)
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink)
        oram.access(0)
        c = sink.by_kind[OpKind.READ_PATH]
        assert c.data_reads == cfg.levels - 2
        assert sink.data_reads_by_level[0] == 0
        assert sink.data_reads_by_level[1] == 0

    def test_read_path_metadata_read_and_written_per_bucket(self):
        cfg = tiny_config(treetop_levels=0)
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink)
        oram.access(0)
        c = sink.by_kind[OpKind.READ_PATH]
        assert c.meta_reads == cfg.levels
        assert c.meta_writes == cfg.levels

    def test_evict_path_costs(self):
        """EvictPath: Z' reads and Z (usable) writes per bucket."""
        cfg = tiny_config(evict_rate=1, treetop_levels=0)
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink)
        oram.access(0)  # triggers one evictPath
        c = sink.by_kind[OpKind.EVICT_PATH]
        assert c.ops == 1
        assert c.data_reads == cfg.levels * 3     # Z' = 3
        assert c.data_writes == cfg.levels * 5    # Z = 5

    def test_stash_hit_still_reads_full_path(self):
        cfg = tiny_config(treetop_levels=0, evict_rate=1000)
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink)
        oram.access(0)
        oram.access(0)  # block is still in the stash (no evict ran)
        assert sink.by_kind[OpKind.READ_PATH].data_reads == 2 * cfg.levels


class TestStashBehaviour:
    def test_block_in_stash_until_evicted(self):
        cfg = tiny_config(evict_rate=1000)
        oram = make_oram(cfg)
        oram.access(0)
        assert 0 in oram.stash

    def test_eviction_drains_stash(self):
        oram = make_oram(seed=7)
        for i in range(60):
            oram.access(i % oram.cfg.n_real_blocks)
        # Plenty of evictions ran (60 / A=3 = 20); stash stays small.
        assert oram.stash.occupancy < 30

    def test_green_blocks_enter_stash(self):
        """Once dummies run out, reads spill real blocks to the stash."""
        cfg = tiny_config(evict_rate=10**6)  # no evictions
        oram = make_oram(cfg, seed=1)
        oram.warm_fill()
        spills = 0
        for i in range(40):
            before = oram.stash.occupancy
            oram.access(i % cfg.n_real_blocks)
            after = oram.stash.occupancy
            if after - before > 1:
                spills += 1
        assert spills > 0


class TestWarmFill:
    def test_every_block_placed(self):
        oram = make_oram(seed=4)
        overflow = oram.warm_fill()
        resident = int((oram.store.slots >= 0).sum()) + oram.stash.occupancy
        assert resident == oram.cfg.n_real_blocks
        assert overflow == oram.stash.occupancy

    def test_placement_respects_paths(self):
        oram = make_oram(seed=4)
        oram.warm_fill()
        oram.check_invariants()

    def test_most_blocks_land_deep(self):
        oram = make_oram(seed=4)
        oram.warm_fill()
        per_level = np.zeros(oram.cfg.levels)
        rows = oram.store.slots
        reals = np.argwhere(rows >= 0)
        for b, _s in reals:
            per_level[oram.store.level(int(b))] += 1
        assert per_level[-1] > per_level.sum() * 0.4

    def test_access_after_warm_fill(self):
        oram = make_oram(seed=4, store_data=True)
        oram.warm_fill()
        oram.write(5, "x")
        for i in range(20):
            oram.access(i)
        assert oram.read(5) == "x"
        oram.check_invariants()


class TestInvariants:
    def test_invariants_hold_through_mixed_traffic(self):
        oram = make_oram(seed=9, store_data=True)
        oram.warm_fill()
        rng = np.random.default_rng(0)
        for i in range(150):
            blk = int(rng.integers(oram.cfg.n_real_blocks))
            if rng.random() < 0.5:
                oram.write(blk, blk)
            else:
                oram.read(blk)
        oram.check_invariants()

    def test_values_survive_mixed_traffic(self):
        oram = make_oram(seed=9, store_data=True)
        oram.warm_fill()
        rng = np.random.default_rng(1)
        shadow = {}
        for i in range(200):
            blk = int(rng.integers(oram.cfg.n_real_blocks))
            if rng.random() < 0.5:
                shadow[blk] = i
                oram.write(blk, i)
            else:
                expect = shadow.get(blk)
                assert oram.read(blk) == expect


class TestBackgroundEviction:
    def test_background_drains_above_threshold(self):
        cfg = tiny_config(background_evict_threshold=6, evict_rate=10)
        oram = make_oram(cfg, seed=11)
        oram.warm_fill()
        for i in range(100):
            oram.access(i % cfg.n_real_blocks)
            assert oram.stash.occupancy <= 6
        assert oram.background_accesses > 0

    def test_background_ops_attributed(self):
        cfg = tiny_config(background_evict_threshold=8, evict_rate=8)
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink, seed=11)
        oram.warm_fill()
        for i in range(80):
            oram.access(i % cfg.n_real_blocks)
        if oram.background_accesses:
            assert sink.by_kind[OpKind.BACKGROUND].ops == oram.background_accesses


class TestWithExtensions:
    def test_ab_oram_runs_and_checks(self):
        cfg = tiny_ab_config()
        oram = RingOram(cfg, seed=3, extensions=RemoteAllocator(cfg),
                        store_data=True)
        oram.warm_fill()
        for i in range(200):
            oram.access((i * 7) % cfg.n_real_blocks)
        oram.check_invariants()
        assert oram.ext.extension_attempts > 0

    def test_remote_reads_happen(self):
        cfg = tiny_ab_config()
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink, seed=3, extensions=RemoteAllocator(cfg))
        oram.warm_fill()
        for i in range(300):
            oram.access((i * 7) % cfg.n_real_blocks)
        assert oram.ext.remote_reads > 0

    def test_values_survive_with_extensions(self):
        cfg = tiny_ab_config()
        oram = RingOram(cfg, seed=3, extensions=RemoteAllocator(cfg),
                        store_data=True)
        oram.warm_fill()
        shadow = {}
        rng = np.random.default_rng(5)
        for i in range(250):
            blk = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                shadow[blk] = i
                oram.write(blk, i)
            else:
                assert oram.read(blk) == shadow.get(blk)
        oram.check_invariants()
