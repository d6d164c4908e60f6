"""Tests for the encrypted tree store and the end-to-end secure data
path (controller + EncryptedTreeStore)."""

import hashlib
import struct

import numpy as np
import pytest

from conftest import comparable_outcomes as _comparable
from conftest import sealed_store_state as _everything
from conftest import Grid, tiny_ab_config, tiny_config

from repro.core.remote import RemoteAllocator
from repro.crypto.auth import AuthenticationError
from repro.crypto.integrity import IntegrityError
from repro.mem.layout import TreeLayout
from repro.oram import tree as tree_mod
from repro.oram.datastore import EncryptedTreeStore, SlotSnapshot, pad_block
from repro.oram.recovery import RobustnessConfig
from repro.oram.ring import RingOram

KEY = b"test master key."


def _sealed(store, bucket, slot):
    mask, width = store.sealed_mask()
    return bool(mask[bucket * width + slot])


def _triple(store, bucket, slot):
    """The slot's off-chip (ciphertext, tag, version) as it stands."""
    addr = int(TreeLayout(store.cfg).first_byte[bucket]) + slot * 64
    i = bucket * store.cfg.z_max + slot
    return SlotSnapshot(bytes(store._memory[addr:addr + 64]),
                        bytes(store._tags[i * 8:(i + 1) * 8]),
                        int(store._version[bucket, slot]))


@pytest.fixture
def store(cfg_small):
    return EncryptedTreeStore(cfg_small, KEY, seed=1)


class TestPadBlock:
    def test_pads_right(self):
        assert pad_block(b"ab", 8) == b"ab" + b"\x00" * 6

    def test_exact_size(self):
        assert pad_block(b"x" * 8, 8) == b"x" * 8

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            pad_block(b"x" * 9, 8)

    def test_type_checked(self):
        with pytest.raises(TypeError):
            pad_block("not bytes")


class TestRefusedWrite:
    """A write whose payload ``pad_block`` refuses is refused before the
    access starts: no path read, no remap, no access count. A half-run
    access used to consume a slot on every level and skip the
    maintenance that follows, until a bucket ran dry."""

    @staticmethod
    def _oram():
        from repro.core import schemes
        from repro.sim.engine import build_oram_stack

        return build_oram_stack(
            schemes.by_name("ab", 7), seed=0, key_domain=b"refused-write",
            robustness=RobustnessConfig(integrity=True),
        ).oram

    @staticmethod
    def _state(oram):
        store = oram.store
        return (
            oram.rng.bit_generator.state, oram.online_accesses,
            *(Grid(store, name).tobytes()
              for name in ("slots", "status", "generation", "count")),
            sorted(oram.stash.blocks()),
        )

    def test_refused_write_touches_nothing(self):
        oram = self._oram()
        for block in range(40):
            oram.read(block)
        before = self._state(oram)
        with pytest.raises(ValueError, match="exceeds"):
            oram.write(3, b"x" * (oram.cfg.block_bytes + 1))
        assert self._state(oram) == before

    def test_interleaved_refusals_keep_the_controller_alive(self):
        oram = self._oram()
        rng = np.random.default_rng(0)
        n = oram.cfg.n_real_blocks
        oversize = b"x" * (oram.cfg.block_bytes + 1)
        for _ in range(3000):
            with pytest.raises(ValueError):
                oram.write(int(rng.integers(n)), oversize)
            oram.read(int(rng.integers(n)))
        oram.check_invariants()


class TestEncryptedTreeStore:
    def test_seal_open_roundtrip(self, store):
        store.seal_many([(3, 1, b"payload")])
        assert store.open_slot(3, 1) == pad_block(b"payload", 64)

    def test_reseal_bumps_version(self, store):
        store.seal_many([(3, 1, b"v1")])
        ct1 = _triple(store, 3, 1).ciphertext
        store.seal_many([(3, 1, b"v1")])
        ct2 = _triple(store, 3, 1).ciphertext
        assert ct1 != ct2  # same plaintext, fresh version -> new bytes
        assert store.open_slot(3, 1) == pad_block(b"v1", 64)

    def test_never_sealed_slot_rejected(self, store):
        with pytest.raises(KeyError):
            store.open_slot(0, 0)

    @pytest.mark.parametrize("block_bytes", [32, 128])
    def test_unsupported_block_size_rejected_up_front(self, block_bytes):
        with pytest.raises(ValueError, match="64-byte blocks"):
            EncryptedTreeStore(tiny_config(block_bytes=block_bytes), KEY)

    def test_ciphertext_is_not_plaintext(self, store):
        store.seal_many([(0, 0, b"secret")])
        assert b"secret" not in _triple(store, 0, 0).ciphertext

    def test_dummy_seal_opens_to_noise(self, store):
        store.seal_many([(2, 0, None)])
        noise = store.open_slot(2, 0)
        assert len(noise) == 64

    def test_payload_tamper_detected(self, store):
        store.seal_many([(3, 1, b"payload")])
        store.tamper_payload(3, 1)
        with pytest.raises(AuthenticationError):
            store.open_slot(3, 1)

    def test_version_rollback_detected(self, store):
        store.seal_many([(3, 1, b"v1")])
        store.seal_many([(3, 1, b"v2")])
        store.tamper_version(3, 1)
        with pytest.raises((AuthenticationError, IntegrityError)):
            store.open_slot(3, 1)

    def test_full_replay_detected_by_merkle_root(self, store):
        """Restore a consistent old (ciphertext, tag, version) triple
        AND rebuild the hash chain: the on-chip root still disagrees."""
        store.seal_many([(3, 1, b"old")])
        old = _triple(store, 3, 1)
        store.capture([(3, 1, None)])
        store.seal_many([(3, 1, b"new")])
        # Attacker restores everything off-chip, consistently.
        assert store.previous(3, 1) == old
        store.restore_slot(3, 1, store.previous(3, 1),
                           restore_version=True, rehash=True)
        assert _triple(store, 3, 1) == old
        with pytest.raises(IntegrityError):
            store.open_slot(3, 1)

    def test_content_digest_is_the_per_slot_loop_byte_for_byte(self, store):
        """The flat tag table hashes exactly what the per-slot form did:
        the version row, then each slot's tag, eight zero bytes for a
        slot never sealed."""
        cfg = store.cfg
        store.seal_many([(3, 1, b"once")])
        store.seal_many([(3, 2, b"first")])
        stale = _triple(store, 3, 2)
        store.seal_many([(3, 2, b"resealed")])
        store.seal_many([(4, 0, b"old")])
        old = _triple(store, 4, 0)
        store.seal_many([(4, 0, b"new")])
        store.restore_slot(4, 0, old)
        store.seal_many([(5, s, None) for s in range(cfg.z_max)])
        assert _triple(store, 3, 2).tag != stale.tag
        assert _triple(store, 4, 0).tag == old.tag
        for bucket in (0, 3, 4, 5, cfg.n_buckets - 1):
            z = cfg.geometry[tree_mod.level_of(bucket)].z_total
            h = hashlib.sha256()
            h.update(store._version[bucket, :z].tobytes())
            for slot in range(z):
                h.update(
                    _triple(store, bucket, slot).tag
                    if _sealed(store, bucket, slot) else b"\x00" * 8
                )
            assert store._content_digests([bucket])[bucket] == h.digest(), bucket

    def test_merkle_leaf_bytes_per_level(self, store):
        """For one bucket per level the Merkle leaf content is SHA-256
        of the level's ``z`` versions as little-endian uint32, then
        their ``z`` tags (eight zero bytes for a slot never sealed)."""
        cfg = store.cfg
        buckets = [(1 << lv) - 1 + lv % (1 << lv) for lv in range(cfg.levels)]
        for lv, b in enumerate(buckets):
            z = cfg.geometry[lv].z_total
            store.seal_many([(b, s, bytes([s])) for s in range(z - 1)]
                            + [(b, 0, None)] * (lv + 1))
        for lv, b in enumerate(buckets):
            z = cfg.geometry[lv].z_total
            snaps = [_triple(store, b, s) if _sealed(store, b, s)
                     else None for s in range(z)]
            assert snaps[-1] is None and snaps[0].version == lv + 2
            leaf = hashlib.sha256(
                b"".join(struct.pack("<I", 0 if sn is None else sn.version)
                         for sn in snaps)
                + b"".join(bytes(8) if sn is None else sn.tag
                           for sn in snaps)
            ).digest()
            assert store._content_digests([b])[b] == leaf, lv
            assert store.integrity._content[b] == leaf, lv

    def test_slot_outside_the_tree_rejected_before_anything_moves(
            self, store):
        """Slot ``(b, z_max)`` would be bucket ``b + 1``'s first entry
        in the flat per-slot tables: every slot-taking call refuses it,
        a bucket outside the tree and a negative index with
        ``IndexError`` and leaves the store as it was."""
        store.seal_many([(3, 0, b"x")])
        store.seal_many([(4, 0, b"y")])
        before = _everything(store)
        z_max, n = store.cfg.z_max, store.cfg.n_buckets
        for bucket, slot in ((3, z_max), (n, 0), (-1, 0), (3, -1)):
            with pytest.raises(IndexError):
                store.seal_many([(0, 0, None), (bucket, slot, b"z")])
            with pytest.raises(IndexError):
                store.open_many([(3, 0), (bucket, slot)])
            with pytest.raises(IndexError):
                store.capture([(bucket, slot, None)])
            with pytest.raises(IndexError):
                store.previous(bucket, slot)
            with pytest.raises(IndexError):
                store.restore_slot(bucket, slot, _triple(store, 3, 0))
        assert _everything(store) == before

    def test_is_sealed(self, store):
        mask, width = store.sealed_mask()
        assert width == store.cfg.z_max and not any(mask)
        store.seal_many([(3, 1, b"x")])
        assert [i for i, flag in enumerate(mask) if flag] == [3 * width + 1]

    def test_without_integrity_tree(self, cfg_small):
        s = EncryptedTreeStore(cfg_small, KEY, with_integrity=False)
        s.seal_many([(0, 0, b"x")])
        assert s.open_slot(0, 0) == pad_block(b"x", 64)

    def test_counters(self, store):
        store.seal_many([(0, 0, b"x")])
        store.open_slot(0, 0)
        assert store.seals == 1
        assert store.opens == 1


def _batch_items(cfg, n):
    """``n`` seals over random slots: every third a dummy, payload
    lengths mixed, and the first slot sealed again at the end."""
    rng = np.random.default_rng(n)
    items = [
        (int(rng.integers(cfg.n_buckets)), int(rng.integers(cfg.z_max)),
         None if i % 3 == 0 else bytes([i % 256]) * (1 + i % 64))
        for i in range(n)
    ]
    if n >= 2:
        items[-1] = (items[0][0], items[0][1], b"sealed twice in one batch")
    return items


def _reference_seal(store, bucket, slot, plaintext):
    """One slot sealed as the store did before every seal was a batch:
    its own filler draw, its address from ``TreeLayout.first_byte``, a
    seal of one, its tag written at its place in the flat table, and its
    Merkle path rehashed from the bucket up. The reference the batches
    are held equal to."""
    if plaintext is None:
        plaintext = store._dummy_plaintext()
    plaintext = pad_block(plaintext, store.cfg.block_bytes)
    addr = int(TreeLayout(store.cfg).first_byte[bucket]) + slot * 64
    version = int(store._version[bucket, slot]) + 1
    store._version[bucket, slot] = version
    ciphertext, tag = store.engine.seal_many([(addr, version, plaintext)])[0]
    store._memory[addr:addr + store.cfg.block_bytes] = ciphertext
    i = bucket * store.cfg.z_max + slot
    store._tags[i * len(tag):(i + 1) * len(tag)] = tag
    store._sealed[i] = 1
    store._sealed_buckets.add(bucket)
    tree = store.integrity
    if tree is not None:
        tree._content[bucket] = store._content_digests([bucket])[bucket]
        b = bucket
        while True:
            tree._digest[b] = tree._combine(b)
            if b == 0:
                break
            b = (b - 1) // 2
        tree._root_onchip = tree._digest[0]
        tree.updates += 1
    store.seals += 1


def _scalar_opens(store, slots):
    """One open per slot (``open_slot`` is the batch of one), failures
    kept in place like ``open_many``."""
    outcomes = []
    for slot in slots:
        outcomes += EncryptedTreeStore.open_many(store, [slot])
    return outcomes


class TestBatchEqualsScalar:
    """``seal_many``/``open_many`` against the scalar calls they batch."""

    # The 3-4 slots of a readPath batch up to a whole warm fill.
    SIZES = [0, 1, 3, 4, 39, 40, 100]

    def _pair(self, cfg, with_integrity=True):
        return [
            EncryptedTreeStore(cfg, KEY, seed=5, with_integrity=with_integrity)
            for _ in range(2)
        ]

    @pytest.mark.parametrize("with_integrity", [True, False])
    @pytest.mark.parametrize("n", SIZES)
    def test_same_state_and_plaintexts(self, cfg_small, n, with_integrity):
        batch, scalar = self._pair(cfg_small, with_integrity)
        items = _batch_items(cfg_small, n)
        batch.seal_many(items)
        for item in items:
            _reference_seal(scalar, *item)
        assert _everything(batch) == _everything(scalar)
        slots = [(bucket, slot) for bucket, slot, _ in items]
        assert batch.open_many(slots) == _scalar_opens(scalar, slots)
        assert _everything(batch) == _everything(scalar)

    @pytest.mark.parametrize("n", [3, 39, 40])
    @pytest.mark.parametrize("attack", ["payload", "version"])
    def test_tampered_slot_fails_alone(self, cfg_small, n, attack):
        batch, scalar = self._pair(cfg_small)
        # One slot per bucket, so a bucket-wide Merkle failure is one item.
        slots = [(bucket, bucket % cfg_small.z_max) for bucket in range(n)]
        victim = n // 2
        for store in (batch, scalar):
            store.seal_many([(b, s, bytes([b]) * 8) for b, s in slots])
            if attack == "payload":
                store.tamper_payload(*slots[victim], flip_byte=9)
            else:
                store.tamper_version(*slots[victim])
        outcomes = batch.open_many(slots)
        assert isinstance(
            outcomes[victim],
            AuthenticationError if attack == "payload" else IntegrityError,
        )
        assert [
            o for i, o in enumerate(outcomes) if i != victim
        ] == [
            pad_block(bytes([b]) * 8, 64)
            for i, (b, _) in enumerate(slots) if i != victim
        ]
        assert _comparable(outcomes) == _comparable(
            _scalar_opens(scalar, slots)
        )
        assert _everything(batch) == _everything(scalar)

    def test_never_sealed_slot_rejected(self, store):
        store.seal_many([(0, 0, b"x")])
        with pytest.raises(KeyError):
            store.open_many([(0, 0), (1, 1)])

    def test_bad_payload_rejected_before_anything_moves(self, store):
        before = _everything(store)
        with pytest.raises(ValueError):
            store.seal_many([(0, 0, None), (0, 1, b"x" * 65)])
        assert _everything(store) == before


class _PerSlotStore(EncryptedTreeStore):
    """The store as it was before batches: loops of the scalar calls."""

    def seal_many(self, items):
        for item in items:
            _reference_seal(self, *item)

    def open_many(self, slots):
        return iter(_scalar_opens(self, slots))


class TestControllerBatchesEqualPerSlot:
    """evictPath's two batches against the per-slot controller, with
    corrupted slots in the middle of them and the ladder switched on."""

    def _run(self, store_cls):
        cfg = tiny_ab_config(levels=5)
        ds = store_cls(cfg, KEY, seed=7)
        oram = RingOram(
            cfg, seed=7, extensions=RemoteAllocator(cfg), datastore=ds,
            robustness=RobustnessConfig(integrity=True),
        )
        oram.warm_fill()
        ext = oram.ext
        rng = np.random.default_rng(3)
        answers = []
        for i in range(240):
            if i % 40 == 20:
                # Corrupt two resident blocks where they lie: a rented
                # column (b, z_max + c) lives in its host's slot.
                resident = np.argwhere(Grid(oram.store, "slots") >= 0)
                for b, s in resident[[5, -5]]:
                    if s >= cfg.z_max:
                        b, s = ext.host_table()[b, s - cfg.z_max]
                    ds.tamper_payload(int(b), int(s))
            blk = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                oram.write(blk, f"v{i}".encode())
            else:
                answers.append(oram.read(blk))
        oram.flush_recovery()
        oram.check_invariants()
        for leaf in range(cfg.n_leaves):
            ds.verify_path(leaf)
        return oram, ds, answers

    def test_warm_fill_chunks_equal_per_slot_seals(self, monkeypatch):
        # A chunk size that leaves a partial last chunk.
        monkeypatch.setattr("repro.oram.ring._WARM_FILL_SEAL_CHUNK", 7)
        cfg = tiny_config(levels=5)
        states = []
        for store_cls in (EncryptedTreeStore, _PerSlotStore):
            ds = store_cls(cfg, KEY, seed=4)
            oram = RingOram(cfg, seed=4, datastore=ds)
            overflow = oram.warm_fill()
            assert ds.seals == cfg.n_real_blocks - overflow
            assert ds.seals % 7
            states.append(_everything(ds))
        assert states[0] == states[1]

    def test_same_run_either_way(self):
        oram, ds, answers = self._run(EncryptedTreeStore)
        ref_oram, ref_ds, ref_answers = self._run(_PerSlotStore)
        assert oram.robust.auth_failures > 0      # the ladder did run
        assert oram.robust.rebuilds > 0
        assert oram.robust == ref_oram.robust
        assert answers == ref_answers
        assert _everything(ds) == _everything(ref_ds)
        assert oram.sink.summary() == ref_oram.sink.summary()
        assert oram.rng.bit_generator.state == ref_oram.rng.bit_generator.state


class TestEncryptedOramEndToEnd:
    def _oram(self, cfg, seed=0):
        ds = EncryptedTreeStore(cfg, KEY, seed=seed, with_integrity=True)
        ext = RemoteAllocator(cfg) if cfg.deadq_levels else None
        return RingOram(cfg, seed=seed, extensions=ext, datastore=ds), ds

    def test_roundtrip_through_ciphertext(self):
        cfg = tiny_config(levels=5)
        oram, ds = self._oram(cfg)
        oram.write(3, b"attack at dawn")
        assert oram.read(3) == pad_block(b"attack at dawn", 64)

    def test_values_survive_evictions(self):
        cfg = tiny_config(levels=5)
        oram, ds = self._oram(cfg, seed=2)
        shadow = {}
        rng = np.random.default_rng(0)
        for i in range(120):
            blk = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                val = f"v{i}".encode()
                shadow[blk] = pad_block(val, 64)
                oram.write(blk, val)
            else:
                got = oram.read(blk)
                if blk in shadow:
                    assert got == shadow[blk]
        oram.check_invariants()
        assert ds.seals > 0 and ds.opens > 0

    def test_values_survive_remote_allocation(self):
        """The AB data path: payloads follow blocks into rented slots."""
        cfg = tiny_ab_config(levels=5)
        oram, ds = self._oram(cfg, seed=3)
        oram.warm_fill()
        shadow = {}
        rng = np.random.default_rng(1)
        for i in range(250):
            blk = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                val = f"ab{i}".encode()
                shadow[blk] = pad_block(val, 64)
                oram.write(blk, val)
            else:
                got = oram.read(blk)
                if blk in shadow:
                    assert got == shadow[blk]
        assert oram.ext.remote_reads > 0, "remote path never exercised"
        oram.check_invariants()

    def test_warm_fill_seals_residents(self):
        cfg = tiny_config(levels=5)
        oram, ds = self._oram(cfg, seed=4)
        oram.warm_fill()
        # Any resident block can be read back (decrypt+verify passes).
        assert oram.read(0) == bytes(64)

    def test_tamper_is_detected_on_next_touch(self):
        cfg = tiny_config(levels=5)
        oram, ds = self._oram(cfg, seed=5)
        oram.warm_fill()
        # Find some resident real block and flip a ciphertext byte.
        rows = np.asarray(Grid(oram.store, "slots"))
        reals = np.argwhere(rows >= 0)
        b, s = map(int, reals[0])
        blk = int(rows[b, s])
        ds.tamper_payload(b, s)
        with pytest.raises(AuthenticationError):
            for _ in range(5):
                oram.read(blk)

    def test_oversize_write_rejected(self):
        cfg = tiny_config(levels=5)
        oram, _ = self._oram(cfg)
        with pytest.raises(ValueError):
            oram.write(0, b"x" * 65)

    def test_non_bytes_write_rejected(self):
        cfg = tiny_config(levels=5)
        oram, _ = self._oram(cfg)
        with pytest.raises(TypeError):
            oram.write(0, 12345)
