"""Unit tests for the Path ORAM controller (repro.oram.path)."""

import numpy as np
import pytest

from repro.oram.path import PathOram, path_oram_config
from repro.oram.stats import CountingSink, OpKind


def make(levels=5, z=4, seed=0, **kw):
    cfg = path_oram_config(levels, z=z, stash_capacity=500)
    return PathOram(cfg, seed=seed, **kw), cfg


class TestConfig:
    def test_standard_shape(self):
        cfg = path_oram_config(5, z=4)
        assert cfg.z_max == 4
        assert all(g.s_reserved == 0 for g in cfg.geometry)

    def test_50_percent_utilization(self):
        cfg = path_oram_config(10, z=4)
        assert cfg.space_utilization == pytest.approx(0.5, abs=0.01)

    def test_rejects_ring_geometry(self):
        from repro.oram.config import OramConfig, uniform_geometry
        cfg = OramConfig(levels=4, geometry=uniform_geometry(4, 3, 2))
        with pytest.raises(ValueError):
            PathOram(cfg)


class TestDataPath:
    def test_roundtrip(self):
        oram, _ = make(store_data=True)
        oram.write(3, "v")
        assert oram.read(3) == "v"

    def test_many_roundtrips(self):
        oram, cfg = make(store_data=True, seed=2)
        n = min(30, cfg.n_real_blocks)
        for i in range(n):
            oram.write(i, i)
        for i in range(n):
            assert oram.read(i) == i

    def test_out_of_range(self):
        oram, cfg = make()
        with pytest.raises(ValueError):
            oram.access(cfg.n_real_blocks)


class TestAccessCosts:
    def test_reads_full_path(self):
        oram, cfg = make()
        sink = CountingSink(cfg.levels)
        oram.sink = sink
        oram.access(0)
        assert sink.by_kind[OpKind.READ_PATH].data_reads == cfg.levels * 4

    def test_writes_full_path(self):
        oram, cfg = make()
        sink = CountingSink(cfg.levels)
        oram.sink = sink
        oram.access(0)
        assert sink.by_kind[OpKind.EVICT_PATH].data_writes == cfg.levels * 4

    def test_ring_online_cost_is_z_times_cheaper(self):
        """The headline Ring ORAM claim: 1 block/bucket vs Z'/bucket."""
        from conftest import tiny_config
        from repro.oram.ring import RingOram
        ring_cfg = tiny_config(levels=5, treetop_levels=0, evict_rate=10**6)
        ring_sink = CountingSink(5)
        ring = RingOram(ring_cfg, sink=ring_sink)
        ring.access(0)
        path_oram, path_cfg = make(levels=5)
        path_sink = CountingSink(5)
        path_oram.sink = path_sink
        path_oram.access(0)
        ring_online = ring_sink.by_kind[OpKind.READ_PATH].data_reads
        path_online = path_sink.by_kind[OpKind.READ_PATH].data_reads
        assert ring_online * 4 == path_online


class TestInvariants:
    def test_held_through_traffic(self):
        oram, cfg = make(seed=5, store_data=True)
        rng = np.random.default_rng(0)
        shadow = {}
        for i in range(200):
            blk = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                shadow[blk] = i
                oram.write(blk, i)
            else:
                assert oram.read(blk) == shadow.get(blk)
        oram.check_invariants()

    def test_stash_stays_bounded(self):
        oram, cfg = make(levels=7, seed=3)
        for i in range(300):
            oram.access(i % cfg.n_real_blocks)
        # Path ORAM's celebrated property: tiny stash at 50% load.
        assert oram.stash.occupancy < 40

    def test_access_counter(self):
        oram, _ = make()
        for i in range(5):
            oram.access(i)
        assert oram.accesses == 5


class TestPinnedRun:
    """One fixed run, recorded at the commit whose write phase still
    scanned the stash itself and reported slot by slot: the shared
    ``pick_for_bucket`` / ``remove_many`` / batch-sink body must leave
    every tally, the stash and every slot where that one did."""

    DIGEST = (
        "209e18374571b5b33ca9fefd1c303c9471f3051382ae35740b5cde400508bc1c"
    )

    def test_run_matches_the_recording(self):
        import hashlib
        import json

        # Z=2 at 95% utilization: blocks outlive the write-back in the
        # stash, so the pick order under a full bucket is on the record.
        cfg = path_oram_config(7, z=2, stash_capacity=500, treetop_levels=2,
                               utilization=0.95)
        sink = CountingSink(cfg.levels)
        oram = PathOram(cfg, sink=sink, seed=11, store_data=True)
        rng = np.random.default_rng(5)
        shadow = {}
        for i in range(400):
            block = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                shadow[block] = i
                oram.write(block, i)
            else:
                assert oram.read(block) == shadow.get(block)
        oram.check_invariants()
        assert oram.stash.occupancy > 0
        state = [
            sink.summary(),
            sink.data_reads_by_level.tolist(),
            sink.data_writes_by_level.tolist(),
            sink.unattributed_accesses,
            list(oram.stash.blocks()),
            oram.stash.peak_occupancy,
            oram.store.slots.tolist(),
            oram.store.status.tolist(),
            oram.rng.bit_generator.state["state"],
        ]
        digest = hashlib.sha256(
            json.dumps(state, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.DIGEST
