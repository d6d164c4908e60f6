"""Tests for the recursive position map / PLB model (repro.oram.plb)."""

import numpy as np
import pytest

from conftest import tiny_config

from repro.oram.plb import RecursivePosMap
from repro.oram.ring import RingOram
from repro.oram.stats import CountingSink, OpKind


class TestDepth:
    def test_flat_when_map_fits_onchip(self):
        pm = RecursivePosMap(1000, onchip_entries=1000)
        assert pm.depth == 0
        assert pm.access(0) == 0

    def test_one_level_of_recursion(self):
        # 10000 entries > 1000 on-chip; 10000/16 = 625 <= 1000.
        pm = RecursivePosMap(10000, onchip_entries=1000, fanout=16)
        assert pm.depth == 1

    def test_paper_scale_depth(self):
        """41.9M blocks, 512KB/4B on-chip -> three PM levels in the tree
        (41.9M -> 2.6M -> 164K -> 10K <= 131K on-chip)."""
        pm = RecursivePosMap(41_943_040, onchip_entries=131072, fanout=16)
        assert pm.depth == 3

    def test_depth_grows_with_block_count(self):
        depths = [RecursivePosMap(10 ** k, onchip_entries=100).depth
                  for k in range(2, 7)]
        assert depths == sorted(depths)


class TestPlbBehaviour:
    def test_cold_miss_then_hit(self):
        pm = RecursivePosMap(10000, onchip_entries=100, plb_entries=64)
        first = pm.access(0)
        assert first == pm.depth  # cold: miss every level
        assert pm.access(0) == 0  # hot: PM0 block cached

    def test_spatial_locality_shares_pm_blocks(self):
        pm = RecursivePosMap(10000, onchip_entries=100, fanout=16)
        pm.access(0)
        assert pm.access(1) == 0  # same PM0 block (block//16)
        assert pm.access(16) >= 1  # next PM0 block

    def test_lru_eviction(self):
        pm = RecursivePosMap(10**6, onchip_entries=10, plb_entries=2,
                             fanout=16)
        pm.access(0)
        pm.access(10**5)  # different PM blocks evict block 0's entries
        pm.access(5 * 10**5)
        assert pm.access(0) > 0

    def test_hit_rate_rises_with_locality(self):
        hot = RecursivePosMap(10**5, onchip_entries=100, plb_entries=256)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            hot.access(int(rng.integers(500)))       # tight working set
        cold = RecursivePosMap(10**5, onchip_entries=100, plb_entries=256)
        for _ in range(2000):
            cold.access(int(rng.integers(10**5)))    # full-range scatter
        assert hot.hit_rate > cold.hit_rate

    def test_stats_shape(self):
        pm = RecursivePosMap(10**4, onchip_entries=100)
        pm.access(7)
        assert pm.hits + pm.misses >= pm.depth

    def test_validation(self):
        with pytest.raises(ValueError):
            RecursivePosMap(0)
        with pytest.raises(ValueError):
            RecursivePosMap(10, plb_entries=0)
        with pytest.raises(ValueError):
            RecursivePosMap(10, fanout=1)
        with pytest.raises(ValueError):
            RecursivePosMap(10, onchip_entries=0)
        pm = RecursivePosMap(10)
        with pytest.raises(ValueError):
            pm.access(10)


class TestControllerIntegration:
    def test_onchip_mode_issues_no_posmap_ops(self, cfg_small):
        sink = CountingSink(cfg_small.levels)
        oram = RingOram(cfg_small, sink=sink, posmap_mode="onchip")
        for i in range(20):
            oram.access(i % cfg_small.n_real_blocks)
        assert sink.by_kind[OpKind.POSMAP].ops == 0

    def test_recursive_mode_issues_posmap_accesses(self):
        cfg = tiny_config(levels=7)
        sink = CountingSink(cfg.levels)
        # Tiny PLB + tiny on-chip share force recursion traffic.
        oram = RingOram(cfg, sink=sink, posmap_mode="recursive",
                        plb_entries=4)
        oram.posmap_model.onchip_entries = 8
        oram.posmap_model.__init__(cfg.n_real_blocks, plb_entries=4,
                                   onchip_entries=8)
        rng = np.random.default_rng(1)
        for _ in range(60):
            oram.access(int(rng.integers(cfg.n_real_blocks)))
        assert sink.by_kind[OpKind.POSMAP].ops > 0
        oram.check_invariants()

    def test_posmap_accesses_advance_evictions(self):
        cfg = tiny_config(levels=7)
        base = RingOram(cfg, seed=0)
        rec = RingOram(cfg, seed=0, posmap_mode="recursive", plb_entries=4)
        rec.posmap_model.__init__(cfg.n_real_blocks, plb_entries=4,
                                  onchip_entries=8)
        for i in range(40):
            base.access(i % cfg.n_real_blocks)
            rec.access(i % cfg.n_real_blocks)
        assert rec.evict_counter > base.evict_counter

    def test_unknown_mode_rejected(self, cfg_small):
        with pytest.raises(ValueError):
            RingOram(cfg_small, posmap_mode="bogus")
