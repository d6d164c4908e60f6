"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.mem import address_map as am
from repro.mem.dram import DramModel
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


class Grid(np.lib.mixins.NDArrayOperatorsMixin):
    """One of a ``BucketStore``'s flat tables in the numpy shape
    ``BucketStore.table`` gives it: ``(n_buckets, width)`` per slot,
    ``(n_buckets,)`` per bucket.

    Every read (subscript, operator, ``shape``, ``tolist``, numpy call)
    sees the store as it is at that moment, through a fresh ``table``
    copy; subscript stores write through to the flat container, slot
    ``(b, s)`` at ``b * width + s``.
    """

    def __init__(self, store, name):
        self._store = store
        self._name = name

    def __array__(self, dtype=None, copy=None):
        out = self._store.table(self._name)
        return out if dtype is None else out.astype(dtype)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) if isinstance(x, Grid) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)

    @property
    def shape(self):
        return np.asarray(self).shape

    def tolist(self):
        return np.asarray(self).tolist()

    def tobytes(self):
        return np.asarray(self).tobytes()

    def __getitem__(self, key):
        return np.asarray(self)[key]

    def __setitem__(self, key, value):
        flat = getattr(self._store, self._name)
        at = np.arange(len(flat)).reshape(self.shape)[key]
        values = np.broadcast_to(value, np.shape(at))
        for i, v in zip(np.ravel(at).tolist(), np.ravel(values).tolist()):
            flat[i] = v


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

    def metadata_access_many(self, items, write, blocks=1):
        self.calls.append(
            ("metadata_access_many", (list(items), write, blocks))
        )


@functools.lru_cache(maxsize=None)
def recorded_ab_stream(accesses: int = 300) -> tuple:
    """One op stream for the sink-protocol tests (read-only: cached).

    Recorded from an AB controller with a treetop and live rentals
    (on-chip items, remote items and all-on-chip batches occur
    naturally, and every reshuffle reports its read phase as Z' copies
    of one slot-0 item), followed by one hand-written operation holding
    the shapes that run never produces: ``blocks=2`` metadata, an empty
    batch, a mid-op stall.
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
        ("data_access_many", ([(bottom, 0, lv, False, False)] * 3, False)),
        ("stall", (12.5,)),
        ("data_access_many",
         ([(bottom, 1, lv, False, True), (0, 0, 0, True, False)], True)),
        ("metadata_access_many", ([(bottom, lv, False)], True, 2)),
        ("end_op", ()),
    )


def replay_stream(sink, stream, scalar: bool = False) -> None:
    """Drive ``stream`` into ``sink`` through the two primitives, or
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


# ------------------------------------------------- DRAM request reference

class ReferenceDramModel(DramModel):
    """The byte-address request loop ``DramModel.access_lines`` replaced,
    kept as the model it must equal: one loop over both placements,
    arithmetic address decomposition and an integer refresh epoch per
    channel (a refresh also holds each bank's windowed ledger for
    tRFC, the fix that came with the line body). Only the request body
    is the reference; the window ledger helpers are the model's own."""

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self._refresh_epoch = [0] * am.N_CHANNELS

    def _epoch_refresh(self, channel: int, arrival_ns: float) -> None:
        t = self.timing
        epoch = int(arrival_ns // t.t_refi)
        if epoch <= self._refresh_epoch[channel]:
            return
        self._refresh_epoch[channel] = epoch
        lo = channel * am.N_BANKS
        hi = lo + am.N_BANKS
        self._open_row[lo:hi] = [-1] * am.N_BANKS
        stall_end = epoch * t.t_refi + t.t_rfc
        ready = self._bank_ready
        for i in range(lo, hi):
            if ready[i] < stall_end:
                ready[i] = stall_end
            if self._bank_iv is not None:
                self._bank_reserve(i, epoch * t.t_refi, stall_end)
        self.stats.refreshes += 1

    def access_batch(self, byte_addrs, write, arrival_ns):
        t_refi = self._t_refi
        t_rp = self._t_rp
        t_rrd = self._t_rrd
        t_col = self._t_rcd + (self._t_cwd if write else self._t_cas)
        t_hit = self._t_cwd if write else self._t_cas
        t_turn = self._t_wtr if not write else self._t_rtw
        t_wr = self._t_wr if write else 0.0
        burst_ns = self._burst_ns
        open_row = self._open_row
        bank_ready = self._bank_ready
        bus_free_l = self._bus_free
        last_activate = self._last_activate
        last_was_write = self._last_was_write
        busy = self.channel_busy_ns
        bank_busy = self.bank_busy_ns
        win_q = self._win_q
        windowed = self._busy is not None
        hits = 0
        latest = 0.0
        for byte_addr in byte_addrs:
            line = byte_addr // am.LINE_BYTES
            channel = line % am.N_CHANNELS
            rest = (line // am.N_CHANNELS) // am.LINES_PER_ROW
            bank = rest % am.N_BANKS
            row = rest // am.N_BANKS
            if t_refi > 0 and arrival_ns >= (
                self._refresh_epoch[channel] + 1
            ) * t_refi:
                self._epoch_refresh(channel, arrival_ns)
            arr = (
                self._window_admit(channel, arrival_ns)
                if win_q is not None else arrival_ns
            )
            bank_idx = channel * am.N_BANKS + bank
            row_hit = open_row[bank_idx] == row
            if row_hit:
                hits += 1
            if windowed:
                if row_hit:
                    s = self._bank_place(
                        bank_idx, arr, t_hit + burst_ns + t_wr
                    )
                    ready = s + t_hit
                else:
                    s = self._bank_place(
                        bank_idx, arr, t_rp + t_col + burst_ns + t_wr
                    )
                    precharged = s + t_rp
                    rated = last_activate[channel] + t_rrd
                    activate = precharged if precharged > rated else rated
                    last_activate[channel] = activate
                    ready = activate + t_col
                burst_start = self._bus_place(channel, ready, burst_ns, write)
                completion = burst_start + burst_ns
                recovered = completion + t_wr
                if recovered > bank_ready[bank_idx]:
                    bank_ready[bank_idx] = recovered
                open_row[bank_idx] = row
                busy[channel] += burst_ns
                bank_busy[bank_idx] += burst_ns + t_wr
                if completion > bus_free_l[channel]:
                    bus_free_l[channel] = completion
                self._window_track(channel, completion)
                if completion > latest:
                    latest = completion
                continue
            brdy = bank_ready[bank_idx]
            if row_hit:
                ready = (arr if arr > brdy else brdy) + t_hit
            else:
                precharged = (arr if arr > brdy else brdy) + t_rp
                rated = last_activate[channel] + t_rrd
                activate = precharged if precharged > rated else rated
                last_activate[channel] = activate
                ready = activate + t_col
            bus_free = bus_free_l[channel]
            if last_was_write[channel] != write:
                bus_free += t_turn
            burst_start = ready if ready > bus_free else bus_free
            completion = burst_start + burst_ns
            bus_free_l[channel] = completion
            last_was_write[channel] = write
            bank_ready[bank_idx] = completion + t_wr
            open_row[bank_idx] = row
            busy[channel] += completion - burst_start
            bank_busy[bank_idx] += completion - burst_start + t_wr
            if win_q is not None:
                self._window_track(channel, completion)
            if completion > latest:
                latest = completion
        n = len(byte_addrs)
        st = self.stats
        if write:
            st.writes += n
        else:
            st.reads += n
        st.row_hits += hits
        st.row_misses += n - hits
        return latest
