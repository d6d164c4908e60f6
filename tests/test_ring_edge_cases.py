"""Edge-case tests for the Ring controller and the timing engine."""


import numpy as np
import pytest

from conftest import RecordingSink, tiny_ab_config, tiny_config

from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.mem.timing import IDEAL_BUS
from repro.oram.bucket import SlotStatus
from repro.oram.ring import ProtocolError, RingOram
from repro.oram.stats import CountingSink, OpKind
from repro.oram.tree import position_of, reverse_lexicographic_leaf
from repro.sim import SimConfig, simulate
from repro.traces.spec import spec_trace


class TestMetadataWidth:
    def test_wide_metadata_multiplies_accesses(self):
        cfg = tiny_ab_config(levels=6, max_remote_slots=120)
        sink = CountingSink(cfg.levels)
        oram = build_oram(cfg, sink=sink)
        assert oram.metadata_blocks >= 2
        oram.access(0)
        c = sink.by_kind[OpKind.READ_PATH]
        assert c.meta_reads == oram.metadata_blocks * cfg.levels

    def test_narrow_metadata_single_block(self, cfg_small):
        oram = build_oram(cfg_small)
        assert oram.metadata_blocks == 1


class TestTreetopExtremes:
    def test_all_but_leaf_cached(self):
        cfg = tiny_config(levels=6, treetop_levels=5)
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink)
        oram.access(0)
        assert sink.by_kind[OpKind.READ_PATH].data_reads == 1

    def test_no_treetop(self):
        cfg = tiny_config(levels=6, treetop_levels=0)
        sink = CountingSink(cfg.levels)
        oram = RingOram(cfg, sink=sink)
        oram.access(0)
        assert sink.by_kind[OpKind.READ_PATH].data_reads == 6


class TestProtocolErrorPaths:
    def test_unreadable_bucket_raises(self, cfg_small):
        oram = RingOram(cfg_small)
        # Sabotage: consume every slot of the root without resetting
        # its counter bookkeeping.
        z = oram.store.z_phys(0)
        for s in range(z):
            oram.store.consume(0, s)
        oram.store.count[0] = 0  # hide the saturation from maintenance
        with pytest.raises(ProtocolError, match="no readable slot"):
            oram.access(0)

    def test_background_burst_cap(self, monkeypatch):
        import repro.oram.ring as ring_mod
        # An impossible configuration (threshold 0: the just-accessed
        # block always keeps occupancy above it) must hit the safety
        # valve rather than spin; shrink the valve to fire immediately.
        monkeypatch.setattr(ring_mod, "_MAX_BACKGROUND_BURST", 0)
        cfg = tiny_config(levels=5, background_evict_threshold=0,
                          evict_rate=10**9, stash_capacity=2000)
        oram = RingOram(cfg, seed=1)
        oram.warm_fill()
        with pytest.raises(ProtocolError, match="background eviction"):
            oram.access(0)


class TestEvictionOrder:
    def test_evictions_follow_reverse_lex(self, cfg_small):
        # The leaf of each evictPath: the deepest bucket whose
        # metadata the sink sees inside the EVICT_PATH op.
        sink = RecordingSink()
        oram = build_oram(cfg_small, sink=sink)
        for i in range(3 * cfg_small.evict_rate):
            oram.access(i % cfg_small.n_real_blocks)
        seen, evicting = [], False
        leaf_level = cfg_small.levels - 1
        for name, args in sink.calls:
            if name == "begin_op":
                evicting = args[0] == OpKind.EVICT_PATH
            elif evicting and name == "metadata_access_many":
                leaves = [position_of(b) for b, lv, _ in args[0]
                          if lv == leaf_level]
                seen += leaves
                evicting = not leaves
        expect = [reverse_lexicographic_leaf(g, cfg_small.levels)
                  for g in range(len(seen))]
        assert seen == expect


class TestPayloadModes:
    def test_no_store_returns_none(self, cfg_small):
        oram = RingOram(cfg_small)
        assert oram.access(0, write=True, value=b"x") is None
        assert oram.access(0) is None

    def test_dict_mode_keeps_arbitrary_objects(self, cfg_small):
        oram = RingOram(cfg_small, store_data=True)
        payload = {"nested": [1, 2, 3]}
        oram.write(1, payload)
        assert oram.read(1) is payload


class TestSlotStatusBookkeeping:
    def test_no_slot_stuck_in_use_forever(self):
        """Every IN_USE slot belongs to exactly one active rental."""
        cfg = tiny_ab_config(levels=6)
        oram = build_oram(cfg, seed=3)
        oram.warm_fill()
        rng = np.random.default_rng(0)
        for _ in range(300):
            oram.access(int(rng.integers(cfg.n_real_blocks)))
        in_use = int((oram.store.status == SlotStatus.IN_USE).sum())
        assert in_use == oram.ext.active_rentals()

    def test_queued_entries_match_queue_or_stale(self):
        cfg = tiny_ab_config(levels=6)
        oram = build_oram(cfg, seed=3)
        oram.warm_fill()
        rng = np.random.default_rng(1)
        for _ in range(200):
            oram.access(int(rng.integers(cfg.n_real_blocks)))
        queued_status = int((oram.store.status == SlotStatus.QUEUED).sum())
        # Queue may hold stale entries (fewer live QUEUED slots than
        # entries is impossible; more is, via lazy invalidation).
        assert queued_status <= oram.ext.queues.total_entries() + 1


class TestSimulateVariants:
    @pytest.fixture(scope="class")
    def cfg(self):
        return schemes.ab_scheme(8)

    def test_ideal_timing_runs_faster(self, cfg):
        trace = spec_trace("mcf", cfg.n_real_blocks, 150, seed=4)
        real = simulate(cfg, trace, SimConfig(seed=4))
        ideal = simulate(cfg, trace, SimConfig(seed=4, timing=IDEAL_BUS))
        assert ideal.exec_ns < real.exec_ns

    def test_observers_passed_through(self, cfg):
        from repro.core.security import GuessingAttacker
        atk = GuessingAttacker(cfg.levels, seed=0)
        trace = spec_trace("mcf", cfg.n_real_blocks, 120, seed=4)
        simulate(cfg, trace, SimConfig(seed=4, observers=[atk]))
        assert atk.guesses >= 120

    def test_cpu_gap_scales_exec_time(self, cfg):
        fast = spec_trace("mcf", cfg.n_real_blocks, 150, seed=4)  # high MPKI
        slow = spec_trace("lee", cfg.n_real_blocks, 150, seed=4)  # low MPKI
        r_fast = simulate(cfg, fast, SimConfig(seed=4))
        r_slow = simulate(cfg, slow, SimConfig(seed=4))
        # lee has ~2000x fewer misses per instruction -> far more CPU
        # time between accesses -> much longer wall time.
        assert r_slow.exec_ns > 10 * r_fast.exec_ns
