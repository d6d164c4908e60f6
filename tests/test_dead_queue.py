"""Unit tests for DeadQ FIFOs (repro.core.dead_queue)."""

from collections import deque

import numpy as np
import pytest

from conftest import Grid

from repro.core.dead_queue import DeadQueue, DeadQueueSet
from repro.oram.bucket import ST_DEAD, ST_QUEUED, BucketStore


@pytest.fixture
def store(cfg_ab_small):
    return BucketStore(cfg_ab_small)


def kill_slot(store, bucket, slot, queued=True):
    """Make (bucket, slot) a DEAD (optionally QUEUED) slot. The queue
    reads status and generation alone, so the tallies are left as
    they are."""
    store.consume(bucket, slot)
    if queued:
        Grid(store, "status")[bucket, slot] = ST_QUEUED
    return int(Grid(store, "generation")[bucket, slot])


class TestDeadQueue:
    def test_fifo_order(self, store):
        q = DeadQueue(10)
        g1 = kill_slot(store, 31, 0)
        g2 = kill_slot(store, 32, 0)
        assert q.gather(31, [0], [g1]) == 1
        assert q.gather(32, [0], [g2]) == 1
        assert q.take(store, 1, -1) == [(31, 0)]
        assert q.take(store, 1, -1) == [(32, 0)]

    def test_capacity_enforced(self, store):
        q = DeadQueue(2)
        assert q.reclaim([(31, 0, 0), (31, 1, 0), (31, 2, 0)]) == 2
        assert q.dropped_full == 1
        assert len(q) == q.capacity

    def test_pop_empty_returns_none(self, store):
        q = DeadQueue(4)
        assert q.take(store, 1, -1) is None
        assert (q.popped, q.stale_discarded) == (0, 0)

    def test_stale_generation_discarded(self, store):
        q = DeadQueue(4)
        gen = kill_slot(store, 31, 0)
        q.gather(31, [0], [gen])
        Grid(store, "generation")[31, 0] += 1  # host reshuffled the slot away
        assert q.take(store, 1, -1) is None
        assert q.stale_discarded == 1
        assert len(q) == 0

    def test_non_queued_status_discarded(self, store):
        q = DeadQueue(4)
        gen = kill_slot(store, 31, 0)
        q.gather(31, [0], [gen])
        Grid(store, "status")[31, 0] = ST_DEAD   # consumed from a rental
        assert q.take(store, 1, -1) is None
        assert q.stale_discarded == 1

    def test_pop_skips_stale_then_returns_valid(self, store):
        q = DeadQueue(4)
        g1 = kill_slot(store, 31, 0)
        g2 = kill_slot(store, 32, 0)
        q.gather(31, [0], [g1])
        q.gather(32, [0], [g2])
        Grid(store, "generation")[31, 0] += 1
        assert q.take(store, 1, -1) == [(32, 0)]

    def test_requeue_front(self, store):
        """The renter's own entries, and on a denial the entries taken,
        go back to the head one at a time: reversed, renter's first."""
        q = DeadQueue(8)
        for b in (31, 32, 33):
            q.gather(b, [0], [kill_slot(store, b, 0)])
        assert q.take(store, 3, 32) is None
        assert [(b, s) for b, s, _ in q.entries()] == [
            (33, 0), (31, 0), (32, 0)]
        assert q.popped == 0
        assert q.take(store, 1, 33) == [(31, 0)]
        assert [(b, s) for b, s, _ in q.entries()] == [(33, 0), (32, 0)]

    def test_counters(self, store):
        q = DeadQueue(4)
        gen = kill_slot(store, 31, 0)
        q.gather(31, [0], [gen])
        q.take(store, 1, -1)
        assert q.pushed == 1
        assert q.popped == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DeadQueue(0)


class TestDeadQueueFifoProperties:
    """Model-based FIFO checks for the bounded DeadQ.

    These tests replay randomized gather/reclaim/take interleavings
    against a plain ``collections.deque`` reference, so the capacity
    bound, the renter skip and the all-or-nothing undo can never
    silently reorder or drop entries. The store is a stand-in whose
    (generation, QUEUED) checks always pass, so only the renter skip
    and a shortage decide what a take returns.
    """

    class _AlwaysValidStore:
        """Minimal BucketStore facade: every entry validates."""

        class _Same:
            """A flat table holding ``value`` at every index."""

            def __init__(self, value):
                self.value = value

            def __getitem__(self, index):
                return self.value

        width = 1
        generation = _Same(0)
        status = _Same(ST_QUEUED)

    @staticmethod
    def _take(model, n, renter):
        """The reference all-or-nothing pop, on ``model`` in place."""
        got, skipped = [], []
        while model and len(got) < n:
            entry = model.popleft()
            (skipped if entry[0] == renter else got).append(entry)
        if len(got) < n:
            model.extendleft(skipped + got)
            return None
        model.extendleft(skipped)
        return got

    @pytest.mark.parametrize("capacity", [1, 2, 7, 64])
    def test_random_interleaving_matches_deque_model(self, capacity):
        rng = np.random.default_rng(capacity)
        q = DeadQueue(capacity)
        model = deque()
        store = self._AlwaysValidStore()
        next_id = 0
        drops = 0
        for _ in range(2000):
            op = rng.integers(3)
            n = int(rng.integers(0, capacity + 2))
            ids = range(next_id, next_id + n)
            next_id += n
            if op == 0:  # reclaim: what does not fit is a counted drop
                entries = [(i % 3, i, 0) for i in ids]
                fit = min(n, capacity - len(model))
                assert q.reclaim(entries) == fit
                model.extend((b, s) for b, s, _ in entries[:fit])
                drops += n - fit
            elif op == 1:  # gather of one bucket: the rest is no drop
                b = int(rng.integers(3))
                fit = min(n, capacity - len(model))
                assert q.gather(b, list(ids), [0] * n) == fit
                model.extend((b, s) for s in list(ids)[:fit])
            else:  # take, the renter one of the buckets or none
                renter = int(rng.integers(-1, 3))
                want = self._take(model, max(n, 1), renter)
                assert q.take(store, max(n, 1), renter) == want
            assert [(b, s) for b, s, _ in q.entries()] == list(model)
            assert q.dropped_full == drops

    def test_gather_stops_at_capacity(self):
        q = DeadQueue(4)
        assert q.gather(7, [0, 1, 2], [0, 0, 0]) == 3
        assert q.gather(7, [3, 4], [0, 0]) == 1
        assert [s for _, s, _ in q.entries()] == [0, 1, 2, 3]
        assert (q.pushed, q.dropped_full) == (4, 0)

    def test_gather_queues_what_reclaim_would(self):
        """One bucket's gather and the reclaim of the same slots leave
        the same entries; only reclaim counts what did not fit."""
        for room in range(6):
            gathered, reclaimed = DeadQueue(room + 1), DeadQueue(room + 1)
            slots = list(range(100, 105))
            gathered.gather(7, slots, [1] * 5)
            reclaimed.reclaim([(7, s, 1) for s in slots])
            assert gathered.entries() == reclaimed.entries()
            assert reclaimed.dropped_full == max(0, 5 - room - 1)
            assert gathered.dropped_full == 0


class TestDeadQueueSet:
    def test_one_queue_per_level(self):
        qs = DeadQueueSet([4, 5], capacity=8)
        assert qs.get(4) is not None
        assert qs.get(5) is not None
        assert qs.get(3) is None

    def test_tracked_levels_sorted(self):
        qs = DeadQueueSet([5, 4], capacity=8)
        assert qs.tracked_levels() == (4, 5)

    def test_total_entries(self, store):
        qs = DeadQueueSet([4, 5], capacity=8)
        qs.get(4).gather(15, [0], [0])
        qs.get(5).reclaim([(31, 0, 0), (32, 0, 0)])
        assert qs.total_entries() == 3

    def test_stats_shape(self):
        qs = DeadQueueSet([4], capacity=8)
        s = qs.stats()
        assert set(s[4]) == {"size", "pushed", "popped", "dropped_full",
                             "stale_discarded"}
