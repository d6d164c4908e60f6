"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.oram.config import BucketGeometry, OramConfig, uniform_geometry
from repro.oram.stats import MemorySink, OpKind


def tiny_config(
    levels: int = 6,
    z_real: int = 3,
    s_reserved: int = 2,
    overlap: int = 2,
    **kw,
) -> OramConfig:
    """A small CB-style config for fast protocol tests."""
    opts = dict(
        levels=levels,
        geometry=uniform_geometry(levels, z_real, s_reserved, overlap=overlap),
        evict_rate=3,
        stash_capacity=500,
        name="tiny",
    )
    opts.update(kw)
    return OramConfig(**opts)


def tiny_ab_config(levels: int = 6, **kw) -> OramConfig:
    """A small config exercising DeadQ + remote extension at the bottom."""
    bottom = tuple(range(levels - 2, levels))
    geometry = list(uniform_geometry(levels, 3, 2, overlap=2))
    for lv in bottom:
        geometry[lv] = BucketGeometry(3, 1, overlap=2, remote_extension=1)
    opts = dict(
        levels=levels,
        geometry=tuple(geometry),
        evict_rate=3,
        stash_capacity=500,
        deadq_levels=bottom,
        deadq_capacity=64,
        name="tiny-ab",
    )
    opts.update(kw)
    return OramConfig(**opts)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def cfg_small():
    return tiny_config()


@pytest.fixture
def cfg_ab_small():
    return tiny_ab_config()


@pytest.fixture
def paper_schemes():
    """The five main schemes at the paper's 24-level geometry."""
    return schemes.main_schemes(24)


def pick_for_bucket(stash, position, shift, capacity):
    """The per-bucket write-back pick ``Stash.pick_path`` replaced, kept
    as its reference: up to ``capacity`` resident blocks of ``stash``
    whose leaf path crosses the bucket at ``position`` of level
    ``levels - 1 - shift`` (``leaf >> shift == position``), in insertion
    order."""
    if capacity <= 0:
        return []
    found = []
    for block, leaf in stash.blocks():
        if (leaf >> shift) == position:
            found.append(block)
            if len(found) >= capacity:
                break
    return found


def sealed_store_state(store):
    """All state of an ``EncryptedTreeStore`` a batch must leave exactly
    as the scalar calls do."""
    tree = store.integrity
    return {
        "memory": bytes(store._memory),
        "tags": {
            (b, s): store.snapshot_slot(b, s).tag
            for b in range(store.cfg.n_buckets)
            for s in range(store.cfg.z_max)
            if store.is_sealed(b, s)
        },
        "version": store._version.tobytes(),
        "sealed_buckets": set(store._sealed_buckets),
        "merkle": None if tree is None else (
            tree.root, list(tree._digest), list(tree._content),
            tree.updates, tree.verifications,
        ),
        "counters": (store.seals, store.opens),
        "dummy_rng": store._rng.bit_generator.state,
    }


def comparable_outcomes(outcomes):
    """Open outcomes with exceptions reduced to (type, message), so two
    runs' lists compare by value."""
    return [
        (type(o), str(o)) if isinstance(o, Exception) else o for o in outcomes
    ]


# ------------------------------------------------- sink-protocol streams

class RecordingSink(MemorySink):
    """Records the protocol calls a controller makes, in order, as
    ``(method name, positional args)``."""

    def __init__(self) -> None:
        self.calls: list = []

    def begin_op(self, kind):
        super().begin_op(kind)
        self.calls.append(("begin_op", (kind,)))

    def end_op(self):
        super().end_op()
        self.calls.append(("end_op", ()))

    def stall(self, ns):
        self.calls.append(("stall", (ns,)))

    def data_access_many(self, items, write):
        self.calls.append(("data_access_many", (list(items), write)))

    def data_access_repeat(self, bucket, slot, level, count, write,
                           onchip=False):
        self.calls.append((
            "data_access_repeat",
            (bucket, slot, level, count, write, onchip),
        ))

    def metadata_access_many(self, items, write, blocks=1):
        self.calls.append(
            ("metadata_access_many", (list(items), write, blocks))
        )


@functools.lru_cache(maxsize=None)
def recorded_ab_stream(accesses: int = 300) -> tuple:
    """One op stream for the sink-protocol tests (read-only: cached).

    Recorded from an AB controller with a treetop and live rentals
    (on-chip items, remote items and all-on-chip batches occur
    naturally), followed by one hand-written operation holding the
    shapes that run never produces: ``blocks=2`` metadata, an empty
    batch, ``count=0`` repeats, a mid-op stall.
    """
    cfg = tiny_ab_config(levels=7, treetop_levels=2)
    rec = RecordingSink()
    oram = build_oram(cfg, sink=rec, seed=5)
    oram.warm_fill()
    rng = np.random.default_rng(1)
    for i in range(accesses):
        oram.access(int(rng.integers(cfg.n_real_blocks)), write=i % 3 == 0)
    assert oram.ext.active_rentals() > 0
    bottom = cfg.n_buckets - 1
    lv = cfg.levels - 1
    return tuple(rec.calls) + (
        ("begin_op", (OpKind.EARLY_RESHUFFLE,)),
        ("metadata_access_many",
         ([(bottom, lv, False), (0, 0, True)], False, 2)),
        ("data_access_many", ([], False)),
        ("data_access_repeat", (bottom, 0, lv, 0, False, False)),
        ("data_access_repeat", (bottom, 0, lv, 3, False, False)),
        ("stall", (12.5,)),
        ("data_access_repeat", (0, 0, 0, 2, True, True)),
        ("data_access_many",
         ([(bottom, 1, lv, False, True), (0, 0, 0, True, False)], True)),
        ("data_access_repeat", (bottom, 0, lv, 0, True, False)),
        ("metadata_access_many", ([(bottom, lv, False)], True, 2)),
        ("end_op", ()),
    )


def replay_stream(sink, stream, scalar: bool = False) -> None:
    """Drive ``stream`` into ``sink`` through the three primitives, or
    (``scalar``) one ``data_access``/``metadata_access`` per touch.
    Clocked sinks get a CPU gap before every operation; 37.5 ns keeps
    every timestamp on the DDR timings' 1/4-ns grid, where float sums
    are exact however they are grouped."""
    for name, args in stream:
        if name == "begin_op" and hasattr(sink, "advance"):
            sink.advance(37.5)
        if not scalar or name in ("begin_op", "end_op", "stall"):
            getattr(sink, name)(*args)
        elif name == "data_access_many":
            items, write = args
            for bucket, slot, level, onchip, remote in items:
                sink.data_access(bucket, slot, level, write,
                                 onchip=onchip, remote=remote)
        elif name == "data_access_repeat":
            bucket, slot, level, count, write, onchip = args
            for _ in range(count):
                sink.data_access(bucket, slot, level, write, onchip=onchip)
        else:
            items, write, blocks = args
            for bucket, level, onchip in items:
                sink.metadata_access(bucket, level, write,
                                     onchip=onchip, blocks=blocks)


# ------------------------------------------------- serving-loop reference

def reference_replay(stack, requests, scheduler, max_batch=32):
    """The plain open-loop serving loop ``repro.serve.replay.replay``
    was before it became ``resilient_replay`` under the null policy:
    idle to the next arrival, admit what has arrived up to
    ``max_batch``, serve it as one batch. Returns the completions; the
    final clock is ``stack.dram_sink.now``."""
    sink = stack.dram_sink
    completions = []
    i, n = 0, len(requests)
    while i < n:
        now = sink.now
        next_arrival = requests[i].arrival_ns
        if next_arrival > now:
            # Idle until the next arrival: open loop never back-fills.
            sink.advance(next_arrival - now)
            now = next_arrival
        batch = [requests[i]]
        i += 1
        while (
            i < n
            and len(batch) < max_batch
            and requests[i].arrival_ns <= now
        ):
            batch.append(requests[i])
            i += 1
        completions.extend(scheduler.serve_batch(batch))
    return completions
