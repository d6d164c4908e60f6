"""Unit tests for DeadQ FIFOs (repro.core.dead_queue)."""

from collections import deque

import numpy as np
import pytest

from repro.core.dead_queue import DeadQueue, DeadQueueSet
from repro.oram.bucket import BucketStore, SlotStatus


@pytest.fixture
def store(cfg_ab_small):
    return BucketStore(cfg_ab_small)


def kill_slot(store, bucket, slot, queued=True):
    """Make (bucket, slot) a DEAD (optionally QUEUED) slot."""
    store.consume(bucket, slot)
    if queued:
        store.set_status(bucket, slot, SlotStatus.QUEUED)
    return int(store.generation[bucket, slot])


class TestDeadQueue:
    def test_fifo_order(self, store):
        q = DeadQueue(10)
        g1 = kill_slot(store, 31, 0)
        g2 = kill_slot(store, 32, 0)
        q.push(31, 0, g1)
        q.push(32, 0, g2)
        assert q.pop_valid(store) == (31, 0)
        assert q.pop_valid(store) == (32, 0)

    def test_capacity_enforced(self, store):
        q = DeadQueue(2)
        assert q.push(31, 0, 0)
        assert q.push(31, 1, 0)
        assert not q.push(31, 2, 0)
        assert q.dropped_full == 1
        assert q.is_full

    def test_pop_empty_returns_none(self, store):
        q = DeadQueue(4)
        assert q.pop_valid(store) is None

    def test_stale_generation_discarded(self, store):
        q = DeadQueue(4)
        gen = kill_slot(store, 31, 0)
        q.push(31, 0, gen)
        store.generation[31, 0] += 1  # host reshuffled the slot away
        assert q.pop_valid(store) is None
        assert q.stale_discarded == 1

    def test_non_queued_status_discarded(self, store):
        q = DeadQueue(4)
        gen = kill_slot(store, 31, 0)
        q.push(31, 0, gen)
        store.set_status(31, 0, SlotStatus.REFRESHED)
        assert q.pop_valid(store) is None

    def test_pop_skips_stale_then_returns_valid(self, store):
        q = DeadQueue(4)
        g1 = kill_slot(store, 31, 0)
        g2 = kill_slot(store, 32, 0)
        q.push(31, 0, g1)
        q.push(32, 0, g2)
        store.generation[31, 0] += 1
        assert q.pop_valid(store) == (32, 0)

    def test_requeue_front(self, store):
        q = DeadQueue(4)
        g1 = kill_slot(store, 31, 0)
        g2 = kill_slot(store, 32, 0)
        q.push(31, 0, g1)
        q.push(32, 0, g2)
        hb, hs = q.pop_valid(store)
        q.requeue_front(hb, hs, int(store.generation[hb, hs]))
        assert q.pop_valid(store) == (31, 0)

    def test_counters(self, store):
        q = DeadQueue(4)
        gen = kill_slot(store, 31, 0)
        q.push(31, 0, gen)
        q.pop_valid(store)
        assert q.pushed == 1
        assert q.popped == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DeadQueue(0)


class TestDeadQueueFifoProperties:
    """Model-based FIFO checks for the bounded DeadQ.

    These tests replay randomized push/push_many/pop/requeue
    interleavings against a plain ``collections.deque`` reference, so
    the capacity bound and the batch and undo paths can never silently
    reorder or drop entries. The store
    is a stand-in whose (generation, QUEUED) checks always pass, so
    every pop must return exactly the reference's head.
    """

    class _AlwaysValidStore:
        """Minimal BucketStore facade: every entry validates."""

        class _Zero:
            def __getitem__(self, key):
                return 0

            def item(self, *key):
                return 0

        class _Queued:
            def __getitem__(self, key):
                return int(SlotStatus.QUEUED)

            def item(self, *key):
                return int(SlotStatus.QUEUED)

        generation = _Zero()
        status = _Queued()

    @pytest.mark.parametrize("capacity", [1, 2, 7, 64])
    def test_random_interleaving_matches_deque_model(self, capacity):
        rng = np.random.default_rng(capacity)
        q = DeadQueue(capacity)
        model = deque()
        store = self._AlwaysValidStore()
        next_id = 0
        for _ in range(2000):
            op = rng.integers(4)
            if op == 0:  # push
                ok = q.push(7, next_id, 0)
                assert ok == (len(model) < capacity)
                if ok:
                    model.append(next_id)
                next_id += 1
            elif op == 1:  # push_many of a random batch, limited to space
                n = int(rng.integers(0, capacity + 1))
                n = min(n, q.space)
                slots = list(range(next_id, next_id + n))
                q.push_many(7, slots, [0] * n)
                model.extend(slots)
                next_id += n
            elif op == 2:  # pop
                got = q.pop_valid(store)
                if model:
                    assert got == (7, model.popleft())
                else:
                    assert got is None
            else:  # pop then requeue_front (the undo path)
                got = q.pop_valid(store)
                if model:
                    assert got == (7, model.popleft())
                    q.requeue_front(got[0], got[1], 0)
                    model.appendleft(got[1])
                else:
                    assert got is None
            assert len(q) == len(model)
            assert [s for _, s, _ in q.entries()] == list(model)

    def test_push_many_overflow_rejected(self):
        q = DeadQueue(4)
        q.push_many(7, [0, 1, 2], [0, 0, 0])
        with pytest.raises(ValueError):
            q.push_many(7, [3, 4], [0, 0])
        # A rejected batch must leave the queue untouched.
        assert [s for _, s, _ in q.entries()] == [0, 1, 2]

    def test_push_many_equivalent_to_pushes_across_wrap(self):
        """A batch split by the wrap point equals one push per slot."""
        store = self._AlwaysValidStore()
        for drain in range(6):
            batched, scalar = DeadQueue(6), DeadQueue(6)
            # Advance both heads so a later batch straddles the end.
            for i in range(drain):
                batched.push(7, i, 0)
                scalar.push(7, i, 0)
                batched.pop_valid(store)
                scalar.pop_valid(store)
            slots = list(range(100, 100 + 5))
            batched.push_many(7, slots, [0] * 5)
            for s in slots:
                scalar.push(7, s, 0)
            assert batched.entries() == scalar.entries()


class TestDeadQueueSet:
    def test_one_queue_per_level(self):
        qs = DeadQueueSet([4, 5], capacity=8)
        assert 4 in qs
        assert 5 in qs
        assert 3 not in qs
        assert qs.get(3) is None

    def test_tracked_levels_sorted(self):
        qs = DeadQueueSet([5, 4], capacity=8)
        assert qs.tracked_levels() == (4, 5)

    def test_total_entries(self, store):
        qs = DeadQueueSet([4, 5], capacity=8)
        qs.get(4).push(15, 0, 0)
        qs.get(5).push(31, 0, 0)
        qs.get(5).push(32, 0, 0)
        assert qs.total_entries() == 3

    def test_stats_shape(self):
        qs = DeadQueueSet([4], capacity=8)
        s = qs.stats()
        assert set(s[4]) == {"size", "pushed", "popped", "dropped_full",
                             "stale_discarded"}
