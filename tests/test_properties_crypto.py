"""Property-based tests for the crypto boundary."""

import hashlib
import hmac
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import comparable_outcomes, sealed_store_state, tiny_config

from repro.crypto.auth import AuthenticationError
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError
from repro.oram.datastore import EncryptedTreeStore

MASTER = b"property test master key"
ENGINE = SecureBlockEngine(MASTER)
ENC_KEY = hashlib.sha256(b"repro/enc|" + MASTER).digest()
MAC_KEY = hashlib.sha256(b"repro/mac|" + MASTER).digest()

ADDRS = st.integers(0, 2**48)
VERSIONS = st.integers(0, 2**31)
BLOCKS = st.binary(min_size=64, max_size=64)


def _open(addr, version, ciphertext, tag):
    """One block through ``open_many``, its MAC failure raised."""
    outcome = ENGINE.open_many([(addr, version, ciphertext, tag)])[0]
    if isinstance(outcome, AuthenticationError):
        raise outcome
    return outcome


def _pad(addr, version):
    """The pad of ``(addr, version)``: the ciphertext of a zero block."""
    return ENGINE.seal_many([(addr, version, bytes(64))])[0][0]


class TestEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS)
    def test_seal_open_roundtrip(self, addr, version, pt):
        ct, tag = ENGINE.seal_many([(addr, version, pt)])[0]
        assert _open(addr, version, ct, tag) == pt

    @settings(max_examples=60, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS,
           flip=st.integers(0, 63), bit=st.integers(0, 7))
    def test_any_single_bit_flip_detected(self, addr, version, pt, flip, bit):
        ct, tag = ENGINE.seal_many([(addr, version, pt)])[0]
        bad = bytearray(ct)
        bad[flip] ^= 1 << bit
        with pytest.raises(AuthenticationError):
            _open(addr, version, bytes(bad), tag)

    @settings(max_examples=40, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS, other=ADDRS)
    def test_splice_to_other_address_detected(self, addr, version, pt, other):
        if other == addr:
            other += 64
        ct, tag = ENGINE.seal_many([(addr, version, pt)])[0]
        with pytest.raises(AuthenticationError):
            _open(other, version, ct, tag)

    @settings(max_examples=40, deadline=None)
    @given(addr=ADDRS, version=st.integers(0, 2**31 - 2), pt=BLOCKS)
    def test_version_replay_detected(self, addr, version, pt):
        ct, tag = ENGINE.seal_many([(addr, version, pt)])[0]
        with pytest.raises(AuthenticationError):
            _open(addr, version + 1, ct, tag)

    @settings(max_examples=40, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS)
    def test_ciphertext_never_equals_plaintext(self, addr, version, pt):
        ct, _ = ENGINE.seal_many([(addr, version, pt)])[0]
        assert ct != pt  # 2^-512 failure probability: effectively never


class TestChaChaProperties:
    """Properties of the sealing pad. The class and its tests keep the
    names they had when the pad was ChaCha20, so their test ids carry
    over."""

    NONCE = st.integers(0, 2**64 - 1)

    @settings(max_examples=40, deadline=None)
    @given(addr=NONCE, version=NONCE, pt=BLOCKS)
    def test_xor_is_involution(self, addr, version, pt):
        """The ciphertext is the plaintext XOR a pad that depends on the
        nonce alone, over the full 64-bit address and version ranges."""
        ct, _ = ENGINE.seal_many([(addr, version, pt)])[0]
        pad = _pad(addr, version)
        assert bytes(c ^ p for c, p in zip(ct, pad)) == pt

    @settings(max_examples=40, deadline=None)
    @given(v1=NONCE, v2=NONCE)
    def test_distinct_counters_distinct_blocks(self, v1, v2):
        one, two = _pad(64, v1), _pad(64, v2)
        assert (one == two) == (v1 == v2)

    @settings(max_examples=30, deadline=None)
    @given(addr=NONCE, version=NONCE)
    def test_keystream_length_exact(self, addr, version):
        assert len(_pad(addr, version)) == ENGINE.BLOCK_BYTES


class TestMerkleProperties:
    @settings(max_examples=25, deadline=None)
    @given(levels=st.integers(2, 7), data=st.data())
    def test_updates_keep_tree_verifiable(self, levels, data):
        tree = BucketMerkleTree(levels)
        n = (1 << levels) - 1
        for i in range(data.draw(st.integers(1, 8))):
            bucket = data.draw(st.integers(0, n - 1))
            tree.update_buckets(
                {bucket: hashlib.sha256(f"u{i}".encode()).digest()}, updates=1
            )
        for leaf in range(min(4, 1 << (levels - 1))):
            tree.verify_path(leaf)

    @settings(max_examples=25, deadline=None)
    @given(levels=st.integers(2, 6), data=st.data())
    def test_any_content_tamper_detected(self, levels, data):
        tree = BucketMerkleTree(levels)
        n = (1 << levels) - 1
        victim = data.draw(st.integers(0, n - 1))
        tree.update_buckets({victim: hashlib.sha256(b"legit").digest()}, 1)
        tree.tamper_content(victim, hashlib.sha256(b"evil").digest())
        assert isinstance(
            tree.verify_buckets({victim: (None, 1)}).get(victim),
            IntegrityError)


def _scalar_walk(tree, bucket, content_digest):
    """The per-bucket check written out, hashing with ``hashlib`` on
    its own: the content, then every node from the bucket up to the
    root, then the on-chip root. The error it would raise, or None."""
    stored = tree._content[bucket]
    if content_digest is not None and content_digest != stored:
        return IntegrityError(
            f"content digest mismatch at bucket {bucket}", bucket=bucket
        )
    b = bucket
    while True:
        left = 2 * b + 1
        children = (tree._digest[left] + tree._digest[left + 1]
                    if left < tree.n_buckets else bytes(64))
        combined = hashlib.sha256(tree._content[b] + children).digest()
        if tree._digest[b] != combined:
            return IntegrityError(f"digest mismatch at bucket {b}", bucket=b)
        if b == 0:
            break
        b = (b - 1) // 2
    if tree._digest[0] != tree.root:
        return IntegrityError("root digest does not match on-chip copy")
    return None


def _seen(exc):
    return None if exc is None else (type(exc), str(exc), exc.bucket)


class TestBatchedMerkleCheck:
    """``verify_buckets`` recombines each shared ancestor once; per
    bucket it must still report what the scalar walk finds."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(levels=st.integers(1, 7), data=st.data())
    def test_batch_equals_scalar_walk(self, levels, data):
        tree = BucketMerkleTree(levels)
        bucket = st.integers(0, tree.n_buckets - 1)
        digest = st.binary(min_size=32, max_size=32)
        for _ in range(data.draw(st.integers(0, 6))):
            tree.update_buckets({data.draw(bucket): data.draw(digest)}, 1)
        for kind, b, d in data.draw(st.lists(st.tuples(
            st.sampled_from(["content", "digest", "rehash"]), bucket, digest,
        ), max_size=4)):
            if kind == "content":
                tree.tamper_content(b, d)
            elif kind == "digest":
                tree.tamper_digest(b, d)
            else:
                tree.tamper_rehash(b)
        checks = {}
        for b in data.draw(st.lists(bucket, min_size=1, max_size=8)):
            content = data.draw(st.sampled_from(["none", "stored", "other"]))
            checks[b] = (
                None if content == "none"
                else tree._content[b] if content == "stored"
                else data.draw(digest),
                data.draw(st.integers(0, 4)),
            )
        want = {b: _seen(_scalar_walk(tree, b, c))
                for b, (c, _) in checks.items()}
        before = tree.verifications
        failed = tree.verify_buckets(checks)
        assert {b: _seen(failed.get(b)) for b in checks} == want
        assert set(failed) == {b for b, seen in want.items() if seen}
        assert tree.verifications == before + sum(
            opens for _, opens in checks.values())
        # The batch of one finds exactly what the walk finds.
        for b, (content, _) in checks.items():
            one = tree.verify_buckets({b: (content, 1)})
            assert _seen(one.get(b)) == want[b]


def _reference_seal(addr, version, plaintext):
    """One block sealed as the scheme is written: pack the ``<QQ``
    nonce, XOR the block with the keyed-BLAKE2b pad of the nonce, tag
    the nonce then the ciphertext with keyed BLAKE2b."""
    nonce = struct.pack("<QQ", addr, version)
    pad = hashlib.blake2b(nonce, key=ENC_KEY, digest_size=64).digest()
    ciphertext = bytes(p ^ k for p, k in zip(plaintext, pad))
    tag = hashlib.blake2b(nonce + ciphertext, key=MAC_KEY,
                          digest_size=8).digest()
    return ciphertext, tag


def _reference_open(addr, version, ciphertext, tag):
    """The per-block open: the plaintext, or the MAC failure as
    ``(type, message)``."""
    expect = _reference_seal(addr, version, bytes(64))
    nonce = struct.pack("<QQ", addr, version)
    mac = hashlib.blake2b(nonce + ciphertext, key=MAC_KEY,
                          digest_size=8).digest()
    if not hmac.compare_digest(mac, tag):
        return (AuthenticationError,
                f"MAC mismatch at addr {addr:#x} version {version}")
    return bytes(c ^ k for c, k in zip(ciphertext, expect[0]))


def _as_seen(outcome):
    if isinstance(outcome, Exception):
        return (type(outcome), str(outcome))
    return outcome


FULL = st.integers(0, 2**64 - 1)
ATTACKS = st.sampled_from(["none", "flip", "tag", "rollback", "splice"])


class TestBatchedSealOpen:
    """``seal_many``/``open_many`` pack each block's nonce once for the
    pad and the tag; per block they must give what the scheme written
    out one block at a time gives, with tampered blocks in the batch."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(items=st.lists(st.tuples(FULL, FULL, BLOCKS), max_size=12),
           data=st.data())
    def test_batches_equal_the_per_block_reference(self, items, data):
        sealed = ENGINE.seal_many(items)
        assert sealed == [_reference_seal(*item) for item in items]
        requests, attacks = [], []
        for (addr, version, _), (ct, tag) in zip(items, sealed):
            attack = data.draw(ATTACKS)
            attacks.append(attack)
            if attack == "flip":
                at = data.draw(st.integers(0, 63))
                bit = data.draw(st.integers(0, 7))
                ct = ct[:at] + bytes([ct[at] ^ (1 << bit)]) + ct[at + 1:]
            elif attack == "tag":
                tag = bytes([tag[0] ^ 0x80]) + tag[1:]
            elif attack == "rollback":
                version = version - 1 if version else version + 1
            elif attack == "splice":
                addr ^= 64
            requests.append((addr, version, ct, tag))
        want = [_reference_open(*request) for request in requests]
        assert [_as_seen(o) for o in ENGINE.open_many(requests)] == want
        # Every attack changes what the tag covers: it fails, and only
        # it; an untouched block opens to its plaintext.
        assert want == [
            pt if attack == "none" else (
                AuthenticationError,
                f"MAC mismatch at addr {addr:#x} version {version}")
            for (_, _, pt), attack, (addr, version, _, _)
            in zip(items, attacks, requests)
        ]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(items=st.lists(st.tuples(FULL, FULL, BLOCKS), min_size=1,
                          max_size=6),
           bad=st.sampled_from([-1, 2**64]),
           half=st.sampled_from(["addr", "version"]),
           data=st.data())
    def test_bad_nonce_is_the_same_value_error(self, items, bad, half, data):
        """A nonce half outside 0..2**64-1 anywhere in a batch: the
        reference cannot pack it, and both batch calls raise one
        ``ValueError`` with the same message."""
        at = data.draw(st.integers(0, len(items) - 1))
        addr, version, pt = items[at]
        items[at] = (bad, version, pt) if half == "addr" else (addr, bad, pt)
        with pytest.raises(struct.error):
            _reference_seal(*items[at])
        with pytest.raises(ValueError) as sealing:
            ENGINE.seal_many(items)
        with pytest.raises(ValueError) as opening:
            ENGINE.open_many([(a, v, pt, bytes(8)) for a, v, pt in items])
        assert str(sealing.value) == str(opening.value) == (
            "addr and version must be unsigned 64-bit integers")


SLOT_ATTACKS = st.sampled_from(["none", "flip", "tag", "version", "unsealed"])


class TestStoreBatchesEqualSlotCalls:
    """``EncryptedTreeStore.seal_many`` / ``open_many`` leave exactly what
    per-slot ``seal_many`` / ``open_slot`` calls leave on a twin store
    (a dummy's filler there is the twin's next ``_dummy_plaintext``):
    memory, tags, versions, Merkle digests and root, counters, the
    filler generator's next draws and every outcome, with repeated
    slots, all-dummy batches and tampered or never-sealed slots."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_batch_leaves_what_slot_calls_leave(self, data):
        cfg = tiny_config(levels=4)
        batch, twin = (EncryptedTreeStore(cfg, MASTER, seed=9)
                       for _ in range(2))
        # Seven buckets of a few slots each: batches repeat slots.
        where = st.tuples(st.integers(0, 6), st.integers(0, 2))
        payload = st.none() | st.binary(max_size=64)
        for _ in range(data.draw(st.integers(1, 3))):
            items = [w + (p,) for w, p in data.draw(st.lists(
                st.tuples(where, payload), min_size=1, max_size=14))]
            if data.draw(st.booleans()):
                items = [(b, s, None) for b, s, _ in items]
            batch.seal_many(items)
            for b, s, p in items:
                twin.seal_many([(b, s, twin._dummy_plaintext()
                                 if p is None else p)])
            assert sealed_store_state(batch) == sealed_store_state(twin)
        mask, width = batch.sealed_mask()
        sealed = [(b, s) for b in range(7) for s in range(3)
                  if mask[b * width + s]]
        slots = data.draw(st.lists(st.sampled_from(sealed), min_size=1,
                                   max_size=10))
        attack = data.draw(SLOT_ATTACKS)
        victim = data.draw(st.sampled_from(slots))
        flip = data.draw(st.integers(0, 63))
        for store in (batch, twin):
            if attack == "flip":
                store.tamper_payload(*victim, flip_byte=flip)
            elif attack == "tag":
                i = victim[0] * cfg.z_max + victim[1]
                store._tags[i * 8] ^= 0x01
            elif attack == "version":
                store.tamper_version(*victim)
        if attack == "unsealed":
            slots.append((7 + data.draw(st.integers(0, 7)), 0))
            for store in (batch, twin):
                with pytest.raises(KeyError):
                    store.open_many(slots)
        else:
            outcomes = []
            for slot in slots:
                try:
                    outcomes.append(twin.open_slot(*slot))
                except (AuthenticationError, IntegrityError) as exc:
                    outcomes.append(exc)
            assert (comparable_outcomes(batch.open_many(slots))
                    == comparable_outcomes(outcomes))
        assert sealed_store_state(batch) == sealed_store_state(twin)
        assert ([batch._dummy_plaintext() for _ in range(3)]
                == [twin._dummy_plaintext() for _ in range(3)])
