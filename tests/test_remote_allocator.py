"""Unit tests for remote allocation (repro.core.remote)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Grid, tiny_ab_config

from repro.core.remote import RemoteAllocator
from repro.oram import tree
from repro.oram.bucket import CONSUMED, DUMMY, UNALLOCATED, SlotStatus
from repro.oram.config import BucketGeometry
from repro.oram.ring import RingOram


@pytest.fixture
def setup(cfg_ab_small):
    """An allocator bound to a fresh controller (no traffic yet)."""
    alloc = RemoteAllocator(cfg_ab_small)
    oram = RingOram(cfg_ab_small, extensions=alloc, seed=0)
    return cfg_ab_small, oram, alloc


def leaf_bucket(cfg, pos=0):
    return (1 << (cfg.levels - 1)) - 1 + pos


def make_dead(store, bucket, slots):
    for s in slots:
        store.consume(bucket, s)


def gather(alloc, cfg, bucket):
    """gatherDEADs as readPath runs it: over the whole path through
    ``bucket`` (one bucket per level, root first)."""
    lv = tree.level_of(bucket)
    leaf = tree.position_of(bucket) << (cfg.levels - 1 - lv)
    path = tree.path_buckets(leaf, cfg.levels)
    assert path[lv] == bucket
    return alloc.gather_path(path)


def rented(oram, bucket):
    """``bucket``'s rented columns: content per column."""
    return Grid(oram.store, "slots")[bucket, oram.store.z_max:].tolist()


class TestGather:
    def test_gathers_dead_slots(self, setup):
        cfg, oram, alloc = setup
        b = leaf_bucket(cfg, 0)
        lv = cfg.levels - 1
        make_dead(oram.store, b, [0, 1])
        dead = Grid(oram.store, "status")[b] == SlotStatus.DEAD
        expected = [(b, int(s)) for s in np.flatnonzero(dead)]
        queued = gather(alloc, cfg, b)
        assert queued == 2
        assert Grid(oram.store, "status")[b, 0] == SlotStatus.QUEUED
        entries = alloc.queues.get(lv).entries()
        assert [(bk, s) for bk, s, _ in entries] == expected

    def test_untracked_level_ignored(self, setup):
        cfg, oram, alloc = setup
        make_dead(oram.store, 0, [0])
        assert gather(alloc, cfg, 0) == 0
        assert Grid(oram.store, "status")[0, 0] == SlotStatus.DEAD

    def test_overstated_dead_tally_raises_inside_its_row(self, setup):
        """Every gatherDEADs search stays in its bucket's row: a
        ``dead_count`` claiming a DEAD slot the row does not hold
        raises, and the next bucket's DEAD slot is not queued."""
        cfg, oram, alloc = setup
        store = oram.store
        b = leaf_bucket(cfg, 0)
        make_dead(store, b + 1, [0])        # the next row's first slot
        store.dead_count[b] += 1            # b holds no DEAD slot
        with pytest.raises(ValueError):
            gather(alloc, cfg, b)
        assert Grid(store, "status")[b + 1, 0] == SlotStatus.DEAD
        assert len(alloc.queues.get(cfg.levels - 1)) == 0

    def test_leaves_one_free_slot(self, setup):
        """A bucket never has all its slots ALLOCATED."""
        cfg, oram, alloc = setup
        b = leaf_bucket(cfg, 1)
        z = oram.store.z_phys(b)
        make_dead(oram.store, b, range(z))
        queued = gather(alloc, cfg, b)
        assert queued == z - 1

    def test_respects_queue_capacity(self, cfg_ab_small):
        cfg = dataclasses.replace(cfg_ab_small, deadq_capacity=1,
                                  geometry=cfg_ab_small.geometry)
        alloc = RemoteAllocator(cfg)
        oram = RingOram(cfg, extensions=alloc, seed=0)
        b = leaf_bucket(cfg, 0)
        make_dead(oram.store, b, [0, 1])
        assert gather(alloc, cfg, b) == 1

    def test_nothing_dead_nothing_queued(self, setup):
        cfg, oram, alloc = setup
        assert gather(alloc, cfg, leaf_bucket(cfg)) == 0


class TestAcquire:
    def test_all_or_nothing_shortage(self, setup):
        cfg, oram, alloc = setup
        b = leaf_bucket(cfg, 0)
        lv = cfg.levels - 1
        # Extension r=1 but the queue is empty.
        granted, hosts = alloc.acquire(b, lv)
        assert granted == 0
        assert hosts == []
        assert alloc.extension_attempts == 1
        assert alloc.extension_grants == 0

    def test_grant(self, setup):
        cfg, oram, alloc = setup
        donor = leaf_bucket(cfg, 0)
        renter = leaf_bucket(cfg, 1)
        lv = cfg.levels - 1
        make_dead(oram.store, donor, [0])
        gather(alloc, cfg, donor)
        granted, hosts = alloc.acquire(renter, lv)
        assert granted == 1
        assert hosts == [(donor, 0)]
        assert Grid(oram.store, "status")[donor, 0] == SlotStatus.IN_USE
        assert tuple(alloc.host_table()[renter, 0]) == (donor, 0)
        assert rented(oram, renter) == [DUMMY]
        assert alloc.extension_ratio == pytest.approx(1.0)

    def test_never_rents_own_slot(self, setup):
        cfg, oram, alloc = setup
        b = leaf_bucket(cfg, 0)
        lv = cfg.levels - 1
        make_dead(oram.store, b, [0])
        gather(alloc, cfg, b)
        granted, hosts = alloc.acquire(b, lv)
        assert granted == 0
        # The entry must still be available for another bucket.
        granted2, hosts2 = alloc.acquire(leaf_bucket(cfg, 1), lv)
        assert granted2 == 1

    def test_grants_follow_gather_fifo_order(self, setup):
        """Acquire hands out hosts oldest-gathered first.

        The SoA DeadQ must preserve the FIFO discipline of the paper's
        on-chip queues end to end: slots gathered earlier (and, within
        one gather, lower slot indices first) are granted before later
        ones, across multiple donors and multiple acquires.
        """
        cfg, oram, alloc = setup
        lv = cfg.levels - 1
        donors = [leaf_bucket(cfg, p) for p in (0, 1, 2)]
        expected = []
        for d in donors:
            make_dead(oram.store, d, [0, 1])
            gather(alloc, cfg, d)
            expected.extend([(d, 0), (d, 1)])
        renter = leaf_bucket(cfg, 3)
        r = cfg.geometry[lv].remote_extension
        got = []
        while True:
            granted, hosts = alloc.acquire(renter, lv)
            if not granted:
                break
            assert granted == r
            got.extend(hosts)
            # Release so the next acquire finds the round over;
            # consuming keeps the slot DEAD (not re-queueable here).
            for i, host in enumerate(hosts):
                assert alloc.consume_remote(renter, i) == host
        assert got == expected[:len(got)]
        assert len(got) >= r  # at least one grant exercised the order

    def test_zero_extension_levels_never_attempt(self, setup):
        cfg, oram, alloc = setup
        granted, hosts = alloc.acquire(0, 0)
        assert granted == 0
        assert alloc.extension_attempts == 0

    def test_denial_requeues_reversed(self, cfg_ab_small):
        """All or nothing: on a shortage the renter's own entries, then
        the ones taken, go back to the DeadQ's head one at a time, so
        they come back reversed (item 1 of ROADMAP owns this order)."""
        lv = cfg_ab_small.levels - 1
        geometry = list(cfg_ab_small.geometry)
        geometry[lv] = BucketGeometry(3, 1, overlap=2, remote_extension=3)
        cfg = dataclasses.replace(cfg_ab_small, geometry=tuple(geometry))
        alloc = RemoteAllocator(cfg)
        oram = RingOram(cfg, extensions=alloc, seed=0)
        renter, donor = leaf_bucket(cfg, 0), leaf_bucket(cfg, 1)
        make_dead(oram.store, renter, [0])
        make_dead(oram.store, donor, [0, 1])
        gather(alloc, cfg, renter)
        gather(alloc, cfg, donor)
        assert alloc.acquire(renter, lv) == (0, [])
        queue = alloc.queues.get(lv)
        assert [(b, s) for b, s, _ in queue.entries()] == [
            (donor, 1), (donor, 0), (renter, 0)]
        assert (alloc.extension_attempts, queue.popped) == (1, 0)
        oram.store.check_tallies()
        alloc.check_invariants()

    def test_acquire_over_a_live_round_raises(self, setup):
        """A round's columns are filled from 0; the previous round must
        have been reclaimed (the controller always does)."""
        cfg, oram, alloc = setup
        lv = cfg.levels - 1
        make_dead(oram.store, leaf_bucket(cfg, 0), [0, 1])
        gather(alloc, cfg, leaf_bucket(cfg, 0))
        renter = leaf_bucket(cfg, 1)
        assert alloc.acquire(renter, lv)[0] == 1
        with pytest.raises(RuntimeError):
            alloc.acquire(renter, lv)


class TestRentalLifecycle:
    def _rent(self, setup):
        cfg, oram, alloc = setup
        donor = leaf_bucket(cfg, 0)
        renter = leaf_bucket(cfg, 1)
        lv = cfg.levels - 1
        make_dead(oram.store, donor, [0])
        gather(alloc, cfg, donor)
        alloc.acquire(renter, lv)
        return cfg, oram, alloc, donor, renter

    def test_write_remote_sets_content(self, setup):
        cfg, oram, alloc, donor, renter = self._rent(setup)
        alloc.write_remote_all(renter, [42])
        assert rented(oram, renter) == [42]
        # The host's own row never shows what the renter stores there.
        assert Grid(oram.store, "slots")[donor, 0] == CONSUMED
        assert tuple(alloc.host_table()[renter, 0]) == (donor, 0)

    def test_write_remote_unknown_host_raises(self, setup):
        cfg, oram, alloc, donor, renter = self._rent(setup)
        with pytest.raises(ValueError):
            alloc.write_remote_all(renter, [42, 43])    # rents one slot
        with pytest.raises(ValueError):
            alloc.write_remote_all(donor, [42])         # rents none
        assert rented(oram, renter) == [DUMMY]

    def test_consume_remote_returns_content(self, setup):
        cfg, oram, alloc, donor, renter = self._rent(setup)
        alloc.write_remote_all(renter, [42])
        assert alloc.consume_remote(renter, 0) == (donor, 0)
        assert Grid(oram.store, "status")[donor, 0] == SlotStatus.DEAD
        assert Grid(oram.store, "slots")[donor, 0] == CONSUMED
        assert oram.store.count[renter] == 1
        assert alloc.remote_real_reads == 1

    def test_consume_remote_dummy_counts(self, setup):
        cfg, oram, alloc, donor, renter = self._rent(setup)
        assert rented(oram, renter) == [DUMMY]
        alloc.consume_remote(renter, 0)
        assert alloc.remote_reads == 1
        assert alloc.remote_real_reads == 0

    def test_path_snapshot_is_a_copy(self, setup):
        """readPath selects from its ``path_slot_views`` snapshot while
        ``consume_remote`` clears the rented column it picked: the
        snapshot keeps what the path held, and writing to it reaches
        no store table."""
        cfg, oram, alloc, donor, renter = self._rent(setup)
        alloc.write_remote_all(renter, [42])
        z_max = oram.store.z_max
        rows = oram.store.path_slot_views([donor, renter])
        before = [list(row) for row in rows]
        assert rows[1][z_max] == 42
        alloc.consume_remote(renter, 0)
        assert rented(oram, renter) == [UNALLOCATED]
        assert rows == before
        rows[0][0] = 7
        assert Grid(oram.store, "slots")[donor, 0] == CONSUMED

    def test_consumed_rental_disappears(self, setup):
        cfg, oram, alloc, donor, renter = self._rent(setup)
        alloc.consume_remote(renter, 0)
        assert rented(oram, renter) == [UNALLOCATED]
        assert alloc.active_rentals() == 0
        with pytest.raises(RuntimeError):
            alloc.consume_remote(renter, 0)

    def test_reclaim_returns_reals_and_requeues(self, setup):
        cfg, oram, alloc, donor, renter = self._rent(setup)
        alloc.write_remote_all(renter, [99])
        # The reals leave with the row; reclaim hands back the hosts.
        row = Grid(oram.store, "slots")[renter]
        assert row[row >= 0].tolist() == [99]
        assert alloc.reclaim(renter) == [(donor, 0)]
        assert rented(oram, renter) == [UNALLOCATED]
        assert Grid(oram.store, "status")[donor, 0] == SlotStatus.QUEUED
        # The slot is rentable again.
        granted, hosts = alloc.acquire(leaf_bucket(cfg, 2), cfg.levels - 1)
        assert granted == 1
        assert hosts == [(donor, 0)]

    def test_reclaim_past_a_full_queue_leaves_the_slot_dead(self, cfg_ab_small):
        cfg = dataclasses.replace(cfg_ab_small, deadq_capacity=1)
        alloc = RemoteAllocator(cfg)
        oram = RingOram(cfg, extensions=alloc, seed=0)
        store = oram.store
        donor, renter, other = (leaf_bucket(cfg, p) for p in (0, 1, 2))
        make_dead(store, donor, [0])
        gather(alloc, cfg, donor)
        assert alloc.acquire(renter, cfg.levels - 1) == (1, [(donor, 0)])
        make_dead(store, other, [0])
        gather(alloc, cfg, other)           # the queue is full again
        assert alloc.reclaim(renter) == [(donor, 0)]
        assert Grid(store, "status")[donor, 0] == SlotStatus.DEAD
        assert (store.dead_count[donor], store.in_use_count[donor]) == (1, 0)
        assert alloc.queues.get(cfg.levels - 1).dropped_full == 1
        store.check_tallies()
        alloc.check_invariants()

    def test_reclaim_without_rentals(self, setup):
        cfg, oram, alloc = setup
        assert alloc.reclaim(leaf_bucket(cfg, 3)) == []

    def test_remote_real_blocks_inventory(self, setup):
        cfg, oram, alloc, donor, renter = self._rent(setup)
        alloc.write_remote_all(renter, [77])
        columns = Grid(oram.store, "slots")[:, oram.store.z_max:]
        assert np.argwhere(columns >= 0).tolist() == [[renter, 0]]
        assert columns[renter, 0] == 77

    def test_stats_shape(self, setup):
        cfg, oram, alloc, donor, renter = self._rent(setup)
        s = alloc.stats()
        assert s["extension_grants"] == 1
        assert s["active_rentals"] == 1
        assert cfg.levels - 1 in s["queues"]


R = 3   # rented slots per round in TestRentedColumnOrder

_OPS = st.lists(
    st.one_of(
        st.just(("acquire",)),
        st.tuples(st.just("write"),
                  st.lists(st.integers(DUMMY, 90), min_size=R, max_size=R)),
        st.tuples(st.just("consume"), st.integers(0, R - 1)),
        st.just(("reclaim",)),
    ),
    min_size=1, max_size=24,
)


class TestRentedColumnOrder:
    """Any interleaving of the four rental calls on one bucket leaves
    its rented columns in acquisition order, consumed ones cleared in
    place -- the order readPath's single draw over the row relies on."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ops=_OPS)
    def test_columns_keep_acquisition_order(self, ops):
        cfg = tiny_ab_config()
        lv = cfg.levels - 1
        geometry = list(cfg.geometry)
        geometry[lv] = BucketGeometry(3, 1, overlap=2, remote_extension=R)
        cfg = dataclasses.replace(cfg, geometry=tuple(geometry))
        alloc = RemoteAllocator(cfg)
        oram = RingOram(cfg, extensions=alloc, seed=0)
        store = oram.store
        renter = leaf_bucket(cfg, 0)
        donors = iter(range(1, cfg.n_leaves))
        hosts = [None] * R       # model: host behind each column ...
        contents = [None] * R    # ... and what it holds (None = empty)
        for op in ops:
            live = [i for i in range(R) if contents[i] is not None]
            if op[0] == "acquire":
                if live:
                    with pytest.raises(RuntimeError):
                        alloc.acquire(renter, lv)
                else:
                    # A fresh donor keeps the DeadQ stocked.
                    donor = leaf_bucket(cfg, next(donors))
                    make_dead(store, donor, range(R))
                    gather(alloc, cfg, donor)
                    granted, got = alloc.acquire(renter, lv)
                    assert granted == R
                    hosts, contents = list(got), [DUMMY] * R
            elif op[0] == "write":
                if len(live) == R:
                    alloc.write_remote_all(renter, op[1])
                    contents = list(op[1])
                else:
                    with pytest.raises(ValueError):
                        alloc.write_remote_all(renter, op[1])
            elif op[0] == "consume":
                i = op[1]
                if contents[i] is None:
                    with pytest.raises(RuntimeError):
                        alloc.consume_remote(renter, i)
                else:
                    assert alloc.consume_remote(renter, i) == hosts[i]
                    contents[i] = None
            else:
                assert alloc.reclaim(renter) == [hosts[i] for i in live]
                contents = [None] * R
            assert rented(oram, renter) == [
                UNALLOCATED if c is None else c for c in contents
            ]
            for i in range(R):
                if contents[i] is not None:
                    assert tuple(alloc.host_table()[renter, i]) == hosts[i]
            assert alloc.n_active[renter] == R - contents.count(None)
            store.check_tallies()
            alloc.check_invariants()


class TestUnbound:
    def test_unbound_allocator_raises(self, cfg_ab_small):
        alloc = RemoteAllocator(cfg_ab_small)
        with pytest.raises(RuntimeError):
            _ = alloc.store
