"""Tests for the AbOram facade (repro.core.ab_oram)."""

import pytest

from repro.core.ab_oram import AbOram, build_oram, needs_extensions
from repro.core.remote import RemoteAllocator
from repro.oram.ring import RingOram


class TestNeedsExtensions:
    def test_plain_config(self, cfg_small):
        assert not needs_extensions(cfg_small)

    def test_ab_config(self, cfg_ab_small):
        assert needs_extensions(cfg_ab_small)


class TestBuildOram:
    def test_plain_build_has_no_ext(self, cfg_small):
        oram = build_oram(cfg_small)
        assert isinstance(oram, RingOram)
        assert oram.ext is None

    def test_ab_build_attaches_allocator(self, cfg_ab_small):
        oram = build_oram(cfg_ab_small)
        assert isinstance(oram.ext, RemoteAllocator)

    def test_metadata_width_reflects_extensions(self, cfg_small, cfg_ab_small):
        plain = build_oram(cfg_small)
        ab = build_oram(cfg_ab_small)
        assert ab.metadata_blocks >= plain.metadata_blocks


class TestFacade:
    def test_from_scheme(self):
        oram = AbOram.from_scheme("ab", levels=8)
        assert oram.cfg.name == "AB"
        assert oram.n_blocks == oram.cfg.n_real_blocks
        assert oram.cfg.block_bytes == 64

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            AbOram.from_scheme("bogus", levels=8)

    def test_read_write(self, cfg_ab_small):
        oram = AbOram(cfg_ab_small)
        oram.write(1, "payload")
        assert oram.read(1) == "payload"

    def test_warm_start(self, cfg_ab_small):
        oram = AbOram(cfg_ab_small)
        oram.check()
        resident = int((oram.oram.store.slots >= 0).sum())
        assert resident + oram.oram.stash.occupancy == cfg_ab_small.n_real_blocks

    def test_space_report(self, cfg_ab_small):
        rep = AbOram(cfg_ab_small).space_report()
        assert rep["scheme"] == "tiny-ab"
        assert rep["tree_bytes"] == cfg_ab_small.tree_bytes
        assert 0 < rep["space_utilization"] < 1

    def test_runtime_report_counts(self, cfg_ab_small):
        oram = AbOram(cfg_ab_small)
        for i in range(60):
            oram.read(i % oram.n_blocks)
        rep = oram.runtime_report()
        assert rep["online_accesses"] == 60
        assert rep["evictions"] == 60 // cfg_ab_small.evict_rate
        assert "remote" in rep
        assert "memory" in rep
        assert len(rep["reshuffles_by_level"]) == cfg_ab_small.levels

    def test_runtime_report_plain_scheme_has_no_remote(self, cfg_small):
        oram = AbOram(cfg_small)
        oram.read(0)
        assert "remote" not in oram.runtime_report()

    def test_allocator_property(self, cfg_ab_small, cfg_small):
        assert AbOram(cfg_ab_small).oram.ext is not None
        assert AbOram(cfg_small).oram.ext is None

    def test_check_delegates(self, cfg_ab_small):
        oram = AbOram(cfg_ab_small)
        for i in range(40):
            oram.read(i % oram.n_blocks)
        oram.check()
