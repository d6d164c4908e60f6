"""Unit tests for the bucket store (repro.oram.bucket)."""

import numpy as np
import pytest

from repro.core import schemes
from repro.oram.bucket import (
    CONSUMED, DUMMY, ST_REFRESHED, UNALLOCATED, BucketStore, SlotStatus,
)
from repro.oram.config import BucketGeometry, OramConfig, override_levels, uniform_geometry
from repro.oram.path import path_oram_config


@pytest.fixture
def store(cfg_small):
    return BucketStore(cfg_small)


@pytest.fixture
def nonuniform_store():
    geom = override_levels(
        uniform_geometry(4, 3, 2, overlap=2), {3: BucketGeometry(3, 0, overlap=2)}
    )
    cfg = OramConfig(levels=4, geometry=geom, name="nu")
    return BucketStore(cfg)


class TestGeometry:
    def test_levels_assigned(self, store):
        assert store.level(0) == 0
        assert store.level(1) == 1
        assert store.level(2) == 1
        assert store.level(store.cfg.n_buckets - 1) == store.cfg.levels - 1

    def test_z_phys_uniform(self, store):
        assert store.z_phys(0) == 5

    def test_z_phys_nonuniform(self, nonuniform_store):
        assert nonuniform_store.z_phys(0) == 5
        assert nonuniform_store.z_phys(7) == 3  # leaf level Z'=3, S=0

    def test_padding_columns_unallocated(self, nonuniform_store):
        leaf_bucket = 7
        assert all(
            nonuniform_store.slots[leaf_bucket, 3:] == UNALLOCATED
        )

    def test_initial_contents_all_dummies(self, store):
        for b in (0, 3, 17):
            assert (store.row(b) == DUMMY).all()

    def test_initial_sustain_unextended(self, store):
        # tiny config: S=2, Y=2 -> sustain 4.
        assert (store.sustain == 4).all()


class TestConsume:
    def test_consume_returns_content(self, store):
        assert store.consume(0, 0) == DUMMY
        assert store.slots[0, 0] == CONSUMED

    def test_consume_increments_count(self, store):
        store.consume(0, 0)
        store.consume(0, 1)
        assert store.count[0] == 2

    def test_consume_sets_dead_status(self, store):
        store.consume(0, 0)
        assert store.status[0, 0] == SlotStatus.DEAD

    def test_double_consume_raises(self, store):
        store.consume(0, 0)
        with pytest.raises(RuntimeError):
            store.consume(0, 0)

    def test_consume_out_of_range_slot(self, store):
        with pytest.raises(ValueError):
            store.consume(0, 5)

    def test_consume_real_block(self, store):
        store.slots[2, 1] = 42
        assert store.consume(2, 1) == 42


def valid_dummy_slots(store, bucket):
    """The dummies readPath may serve from ``bucket``, by the mask it
    runs over the path snapshot."""
    rows, sts = store.path_slot_views(np.array([bucket]))
    return ((rows == DUMMY) & (sts == ST_REFRESHED)).nonzero()[1].tolist()


class TestQueries:
    def test_valid_dummy_slots_excludes_consumed(self, store):
        store.consume(0, 0)
        assert valid_dummy_slots(store, 0) == [1, 2, 3, 4]

    def test_valid_dummy_slots_excludes_allocated(self, store):
        """Slots rented to another bucket (IN_USE) or parked in a DeadQ
        (QUEUED) are not the bucket's to read: the paper marks them
        ALLOCATED precisely so that "no one else will use" them."""
        store.set_status(0, 1, SlotStatus.QUEUED)
        store.set_status(0, 2, SlotStatus.IN_USE)
        assert valid_dummy_slots(store, 0) == [0, 3, 4]

    def test_valid_real_slots(self, store):
        store.slots[4, 0] = 10
        store.slots[4, 3] = 11
        assert list(store.valid_real_slots(4)) == [0, 3]

    def test_real_count(self, store):
        store.slots[4, 0] = 10
        store.slots[4, 3] = 11
        assert store.resident_blocks(4).tolist() == [10, 11]

    def test_dead_slots(self, store):
        store.consume(1, 0)
        store.consume(1, 2)
        assert list(store.dead_slots(1)) == [0, 2]

    def test_usable_slots_excludes_in_use_only(self, store):
        store.set_status(5, 0, SlotStatus.IN_USE)
        store.set_status(5, 1, SlotStatus.QUEUED)
        usable = list(store.usable_slots(5))
        assert 0 not in usable
        assert 1 in usable


class TestRefresh:
    def test_refresh_resets_count_and_contents(self, store):
        store.consume(0, 0)
        store.consume(0, 1)
        written = store.refresh(0, [7, 8])
        assert store.count[0] == 0
        assert set(written) == set(range(5))
        row = store.row(0)
        assert sorted(x for x in row if x >= 0) == [7, 8]
        assert (row != CONSUMED).all()

    def test_refresh_restores_status(self, store):
        store.consume(0, 0)
        store.refresh(0, [])
        assert store.status[0, 0] == SlotStatus.REFRESHED

    def test_refresh_bumps_generation_of_queued(self, store):
        store.consume(0, 0)
        gen = int(store.generation[0, 0])
        store.set_status(0, 0, SlotStatus.QUEUED)
        store.refresh(0, [])
        assert store.generation[0, 0] == gen + 1
        assert store.queued_count[0] == 0

    def test_refresh_skips_in_use(self, store):
        store.slots[0, 0] = CONSUMED
        store.set_status(0, 0, SlotStatus.IN_USE)
        written = store.refresh(0, [])
        assert 0 not in written
        assert store.slots[0, 0] == CONSUMED
        assert store.status[0, 0] == SlotStatus.IN_USE

    def test_refresh_sustain_with_extension(self, store):
        store.refresh(0, [], granted_extension=2)
        assert store.sustain[0] == 4 + 2

    def test_refresh_sustain_capped_by_rented_slots(self, store):
        # Rent out 2 of 5 slots: usable = 3 < sustain_unextended 4.
        store.set_status(0, 0, SlotStatus.IN_USE)
        store.set_status(0, 1, SlotStatus.IN_USE)
        store.refresh(0, [])
        assert store.sustain[0] == 3

    def test_refresh_too_many_reals_raises(self, store):
        with pytest.raises(RuntimeError):
            store.refresh(0, list(range(6)))

    def test_refresh_counts_reshuffles_per_level(self, store):
        store.refresh(3, [])
        store.refresh(4, [])
        store.refresh(0, [])
        assert store.reshuffles_by_level[2] == 2
        assert store.reshuffles_by_level[0] == 1

    def test_needs_reshuffle(self, store):
        assert not store.needs_reshuffle(0)
        for s in range(4):
            store.consume(0, s)
        assert store.needs_reshuffle(0)


class TestGlobalScans:
    def test_total_dead_slots(self, store):
        store.consume(0, 0)
        store.consume(3, 1)
        assert store.total_dead_slots() == 2

    def test_queued_counts_as_dead(self, store):
        store.consume(0, 0)
        store.set_status(0, 0, SlotStatus.QUEUED)
        assert store.total_dead_slots() == 1

    def test_in_use_not_dead(self, store):
        store.consume(0, 0)
        store.set_status(0, 0, SlotStatus.IN_USE)
        assert store.total_dead_slots() == 0

    def test_dead_slots_by_level(self, store):
        store.consume(0, 0)       # level 0
        store.consume(1, 0)       # level 1
        store.consume(2, 0)       # level 1
        per = store.dead_slots_by_level()
        assert per[0] == 1
        assert per[1] == 2
        assert per.sum() == 3

    def test_write_dummy(self, store):
        store.slots[0, 0] = CONSUMED
        store.set_slot(0, 0, DUMMY)
        assert store.slots[0, 0] == DUMMY

    def test_tallies_follow_every_transition(self, store):
        store.consume(0, 0)
        store.consume(0, 1)
        store.consume(0, 2)
        store.queue_dead(0, np.array([0, 1]))
        store.set_status(0, 1, SlotStatus.IN_USE)
        assert (store.dead_count[0], store.queued_count[0],
                store.in_use_count[0]) == (1, 1, 1)
        store.check_tallies()
        store.refresh(0, [])
        assert (store.dead_count[0], store.queued_count[0],
                store.in_use_count[0]) == (0, 0, 1)
        store.check_tallies()
        store.status[0, 3] = SlotStatus.DEAD      # behind the tallies' back
        with pytest.raises(AssertionError, match="dead_count"):
            store.check_tallies()


class TestWideRows:
    """A row is the bucket's local slots, then one column per slot it
    may rent; schemes without extension pay for none."""

    @pytest.mark.parametrize("name", ["ring", "baseline", "ir", "ns"])
    def test_no_extension_no_extra_columns(self, name):
        cfg = schemes.by_name(name, 8)
        store = BucketStore(cfg)
        for arr in (store.slots, store.status, store.generation):
            assert arr.shape == (cfg.n_buckets, cfg.z_max)
        assert store.z_max == cfg.z_max

    def test_path_oram_no_extra_columns(self):
        cfg = path_oram_config(6)
        assert BucketStore(cfg).slots.shape == (cfg.n_buckets, cfg.z_max)

    @pytest.mark.parametrize("name", ["dr", "dr-perf", "ab"])
    def test_extension_adds_r_max_columns(self, name):
        cfg = schemes.by_name(name, 8)
        r_max = max(g.remote_extension for g in cfg.geometry)
        assert r_max == 2
        store = BucketStore(cfg)
        for arr in (store.slots, store.status, store.generation):
            assert arr.shape == (cfg.n_buckets, cfg.z_max + r_max)
        # Nothing rented yet: the columns are empty, REFRESHED, and in
        # no scan's way.
        assert (store.slots[:, store.z_max:] == UNALLOCATED).all()
        assert (store.status[:, store.z_max:] == ST_REFRESHED).all()
        assert store.total_dead_slots() == 0

    def test_rented_columns_read_like_local_slots(self, cfg_ab_small):
        store = BucketStore(cfg_ab_small)
        b = cfg_ab_small.n_buckets - 1
        store.slots[b, 1] = 7
        store.slots[b, store.z_max] = 9          # a rented real block
        assert store.resident_blocks(b).tolist() == [7, 9]
        assert store.valid_real_slots(b).tolist() == [1]    # local only
        store.slots[b, store.z_max] = DUMMY      # a rented dummy
        assert valid_dummy_slots(store, b)[-1] == store.z_max
        rows, _ = store.path_slot_views(np.array([0, b]))
        assert [list(h) for h in (rows == 7).nonzero()] == [[1], [1]]
        with pytest.raises(ValueError):
            store.consume(b, store.z_max)        # not a local slot
