"""Regression net: every scheme x several scales, invariants + data.

A cheap but wide matrix that catches regressions anywhere in the
protocol stack: each cell runs mixed traffic with a shadow dict and
finishes with the full invariant check. Path ORAM joins via the same
differential harness.
"""

import numpy as np
import pytest

from conftest import LinearScanOram
from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.oram.path import PathOram, path_oram_config

SCHEMES = ["baseline", "ir", "dr", "dr-perf", "ns", "ab", "ring"]
LEVELS = [6, 9]


def mixed_traffic(oram, n_blocks, n_ops, seed):
    shadow = {}
    rng = np.random.default_rng(seed)
    for i in range(n_ops):
        blk = int(rng.integers(n_blocks))
        if rng.random() < 0.5:
            shadow[blk] = i
            oram.access(blk, write=True, value=i)
        else:
            assert oram.access(blk) == shadow.get(blk)
    return shadow


class TestSchemeMatrix:
    @pytest.mark.parametrize("levels", LEVELS)
    @pytest.mark.parametrize("name", SCHEMES)
    def test_scheme_sound_under_traffic(self, name, levels):
        cfg = schemes.by_name(name, levels)
        oram = build_oram(cfg, seed=42, store_data=True)
        oram.warm_fill()
        mixed_traffic(oram, cfg.n_real_blocks, 180, seed=7)
        oram.check_invariants()

    @pytest.mark.parametrize("name", SCHEMES)
    def test_scheme_cold_start_sound(self, name):
        """Without warm_fill: blocks materialize on first touch."""
        cfg = schemes.by_name(name, 6)
        oram = build_oram(cfg, seed=1, store_data=True)
        mixed_traffic(oram, cfg.n_real_blocks, 120, seed=3)
        oram.check_invariants()


class TestPathOramDifferential:
    def test_path_oram_matches_scan(self):
        cfg = path_oram_config(6, z=4, stash_capacity=500)
        path = PathOram(cfg, seed=2)
        scan = LinearScanOram(cfg.n_real_blocks)
        rng = np.random.default_rng(5)
        for i in range(250):
            blk = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                path.access(blk, write=True, value=i)
                scan.write(blk, i)
            else:
                assert path.access(blk) == scan.read(blk)
        path.check_invariants()
