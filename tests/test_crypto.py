"""Tests for the crypto boundary (repro.crypto).

The keystream is pinned to known-answer vectors and to ``hashlib``'s
keyed BLAKE2b; the tags, engine, and Merkle tree are tested for
round-trips and -- more importantly -- for *detection*: every modelled
attack (bit flips, splicing, version rollback, consistent replay) must
raise.
"""

import hashlib
import pickle
import struct

import pytest

from repro.crypto.auth import TAG_BYTES, AuthenticationError
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError


MASTER = b"master key bytes"


def _pad(engine, addr, version):
    """The 64-byte pad of slot ``addr`` at ``version``: the ciphertext
    of a zero block."""
    return engine.seal_many([(addr, version, bytes(64))])[0][0]


def _open(engine, addr, version, ciphertext, tag):
    """One block through ``open_many``, its MAC failure raised."""
    outcome = engine.open_many([(addr, version, ciphertext, tag)])[0]
    if isinstance(outcome, AuthenticationError):
        raise outcome
    return outcome


def _mac_key(master):
    return hashlib.sha256(b"repro/mac|" + master).digest()


class TestChaCha20Rfc8439:
    """Known-answer vectors of the sealing pad: keyed BLAKE2b (RFC 7693)
    of the ``<QQ`` (address, version) nonce under the derived encryption
    key. The class and its tests keep the names they had when the pad
    was ChaCha20 (RFC 8439), so their test ids carry over."""

    def test_block_function_vector(self):
        pad = _pad(SecureBlockEngine(MASTER), 0xABC0, 7)
        assert pad == bytes.fromhex(
            "8d34cbda23210e8921f8b97f6e181a31"
            "c17d53ffec136c14c6cf7ed72a0d0e16"
            "d94ee9660af23ac2c3024fb28baf0d9e"
            "39cb127a8db92db2d6accd816e345624"
        )

    def test_encryption_vector(self):
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"o"
        )
        engine = SecureBlockEngine(MASTER)
        ciphertext, _ = engine.seal_many([(0xABC0, 7, plaintext)])[0]
        assert ciphertext == bytes.fromhex(
            "c155afb346522ee84f9c99380b766e5d"
            "a4103691cc7c0a34b2a71bf749616f65"
            "aa6e86002ad503fbf92206d4abe62dfd"
            "56be7e1eadd64bd4b3deedf80141764b"
        )

    def test_keystream_block_zero_vector(self):
        pad = _pad(SecureBlockEngine(MASTER), 0, 0)
        assert pad == bytes.fromhex(
            "6c1b3bbeca528f113b103c21b777c4a6"
            "ad0adf7b99b755041bcedf620eba415b"
            "34bb0d1a6d1009d3690d14220b51ed20"
            "2491dc7d8445a2dfba5b9a190820de68"
        )


class TestChaCha20Api:
    """The pad's API on ``SecureBlockEngine``. The class and its tests
    keep the names they had when the pad was ChaCha20, so their test
    ids carry over."""

    def test_xor_roundtrip(self):
        engine = SecureBlockEngine(MASTER)
        msg = b"hello oram world" * 4
        ciphertext, _ = engine.seal_many([(64, 3, msg)])[0]
        pad = _pad(engine, 64, 3)
        assert bytes(c ^ k for c, k in zip(ciphertext, pad)) == msg

    def test_one_shot_helper(self):
        """The copied keyed state gives what a one-shot ``hashlib``
        call gives, over the whole 64-bit nonce range."""
        enc_key = hashlib.sha256(b"repro/enc|" + MASTER).digest()
        engine = SecureBlockEngine(MASTER)
        for addr, version in [
            (0, 0), (64, 1), (0xABC0, 2**32 + 7), (2**64 - 1, 2**64 - 1),
        ]:
            assert _pad(engine, addr, version) == hashlib.blake2b(
                struct.pack("<QQ", addr, version),
                key=enc_key, digest_size=64,
            ).digest()

    def test_different_counters_differ(self):
        engine = SecureBlockEngine(MASTER)
        assert _pad(engine, 64, 0) != _pad(engine, 64, 1)

    def test_different_nonces_differ(self):
        engine = SecureBlockEngine(MASTER)
        nonces = [(a, v) for a in (0, 64, 2**32) for v in (0, 1, 2**32)]
        pads = {_pad(engine, a, v) for a, v in nonces}
        assert len(pads) == len(nonces)

    def test_keystream_prefix_property(self):
        """A block's pad does not depend on the batch it is sealed in:
        a batch's prefix seals as the batch's first items did."""
        engine = SecureBlockEngine(MASTER)
        items = [(64 * i, i, bytes([i]) * 64) for i in range(6)]
        assert engine.seal_many(items[:2]) == engine.seal_many(items)[:2]

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            SecureBlockEngine(b"k" * 15)
        assert len(_pad(SecureBlockEngine(b"k" * 16), 0, 0)) == 64

    def test_bad_nonce_length(self):
        """The address half of the nonce is an unsigned 64-bit word."""
        engine = SecureBlockEngine(MASTER)
        for addr in (-1, 2**64):
            with pytest.raises(ValueError):
                engine.open_many([(addr, 0, bytes(64), bytes(8))])
            with pytest.raises(ValueError):
                engine.seal_many([(addr, 0, bytes(64))])[0]

    def test_bad_counter(self):
        """So is the version half."""
        engine = SecureBlockEngine(MASTER)
        for version in (-1, 2**64):
            with pytest.raises(ValueError):
                engine.open_many([(0, version, bytes(64), bytes(8))])
            with pytest.raises(ValueError):
                engine.seal_many([(0, version, bytes(64))])[0]

    def test_negative_length(self):
        """A block is exactly one 64-byte pad long, no shorter or
        longer."""
        engine = SecureBlockEngine(MASTER)
        for size in (0, 63, 65):
            with pytest.raises(ValueError):
                engine.seal_many([(0, 0, bytes(size))])[0]


class TestKeystream:
    def test_distinct_keys_distinct_pads(self):
        one = _pad(SecureBlockEngine(MASTER), 64, 1)
        other = _pad(SecureBlockEngine(b"master key bytez"), 64, 1)
        assert one != other

    def test_version_past_32_bits_is_a_new_nonce(self):
        """The whole version is nonce: a slot written 2**32 times more
        does not reuse its pad."""
        engine = SecureBlockEngine(MASTER)
        v = 5
        low, _ = engine.seal_many([(0x1000, v, bytes(64))])[0]
        high, _ = engine.seal_many([(0x1000, v + 2**32, bytes(64))])[0]
        assert low != high

    def test_pickle_rebuilds_the_keyed_state(self):
        """Checkpoints pickle the engine; the keyed BLAKE2b state cannot
        be pickled and is rebuilt from the key."""
        engine = SecureBlockEngine(MASTER)
        clone = pickle.loads(pickle.dumps(engine))
        item = (64, 3, bytes(64))
        assert clone.seal_many([item]) == engine.seal_many([item])


class TestBlockAuthenticator:
    """The block tag, computed and checked inside the engine's batches.
    The class keeps the name it had when a separate authenticator
    object held the MAC key, so its test ids carry over."""

    def test_roundtrip(self):
        eng = SecureBlockEngine(MASTER)
        ct, tag = eng.seal_many([(0x1000, 3, b"c" * 64)])[0]
        assert _open(eng, 0x1000, 3, ct, tag) == b"c" * 64

    def test_tampered_ciphertext_rejected(self):
        eng = SecureBlockEngine(MASTER)
        ct, tag = eng.seal_many([(0x1000, 3, b"c" * 64)])[0]
        with pytest.raises(AuthenticationError):
            _open(eng, 0x1000, 3, bytes([ct[0] ^ 1]) + ct[1:], tag)

    def test_spliced_address_rejected(self):
        eng = SecureBlockEngine(MASTER)
        ct, tag = eng.seal_many([(0x1000, 3, b"c" * 64)])[0]
        with pytest.raises(AuthenticationError, match="addr 0x2000"):
            _open(eng, 0x2000, 3, ct, tag)

    def test_rolled_back_version_rejected(self):
        eng = SecureBlockEngine(MASTER)
        ct, tag = eng.seal_many([(0x1000, 3, b"c" * 64)])[0]
        with pytest.raises(AuthenticationError, match="version 2$"):
            _open(eng, 0x1000, 2, ct, tag)

    def test_tag_is_truncated(self):
        eng = SecureBlockEngine(MASTER)
        _, tag = eng.seal_many([(0, 0, bytes(64))])[0]
        assert len(tag) == TAG_BYTES == eng.tag_bytes

    def test_pickle_roundtrip_keeps_the_key(self):
        """Checkpoints pickle the engine; the keyed BLAKE2b MAC state
        cannot be pickled and must be rebuilt from the key: a clone
        verifies what the original sealed."""
        eng = SecureBlockEngine(MASTER)
        clone = pickle.loads(pickle.dumps(eng))
        ct, tag = eng.seal_many([(64, 3, b"c" * 64)])[0]
        assert _open(clone, 64, 3, ct, tag) == b"c" * 64

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            SecureBlockEngine(MASTER).seal_many([(-1, 0, bytes(64))])

    def test_tag_is_keyed_blake2b(self):
        """The tag is ``hashlib``'s keyed BLAKE2b, 8-byte digest, under
        the derived MAC key, of the ``<QQ`` (address, version) nonce
        followed by the ciphertext."""
        ct, tag = SecureBlockEngine(MASTER).seal_many(
            [(0x1000, 3, bytes(range(64)))])[0]
        want = hashlib.blake2b(
            struct.pack("<QQ", 0x1000, 3) + ct,
            key=_mac_key(MASTER), digest_size=8,
        ).digest()
        assert tag == want

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_nonce_halves_are_unsigned_64_bit(self, bad):
        """Sealing and opening share one nonce packer and one error: a
        ``ValueError``, never a bare ``struct.error``."""
        engine = SecureBlockEngine(MASTER)
        for addr, version in ((bad, 0), (0, bad)):
            calls = (
                lambda: engine.seal_many([(addr, version, b"c" * 64)]),
                lambda: engine.open_many(
                    [(addr, version, b"c" * 64, bytes(8))]),
            )
            for call in calls:
                with pytest.raises(ValueError, match="unsigned 64-bit"):
                    call()


class TestSecureBlockEngine:
    def test_seal_open_roundtrip(self):
        eng = SecureBlockEngine(b"master key bytes")
        pt = bytes(range(64))
        ct, tag = eng.seal_many([(0xABC0, 7, pt)])[0]
        assert _open(eng, 0xABC0, 7, ct, tag) == pt

    def test_ciphertext_differs_from_plaintext(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct, _ = eng.seal_many([(0, 1, bytes(64))])[0]
        assert ct != bytes(64)

    def test_same_plaintext_two_versions_unrelated(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct1, _ = eng.seal_many([(0, 1, bytes(64))])[0]
        ct2, _ = eng.seal_many([(0, 2, bytes(64))])[0]
        assert ct1 != ct2

    def test_same_plaintext_two_addresses_unrelated(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct1, _ = eng.seal_many([(64, 1, bytes(64))])[0]
        ct2, _ = eng.seal_many([(128, 1, bytes(64))])[0]
        assert ct1 != ct2

    def test_wrong_size_rejected(self):
        eng = SecureBlockEngine(b"master key bytes")
        with pytest.raises(ValueError):
            eng.seal_many([(0, 0, b"short")])[0]
        with pytest.raises(ValueError):
            _open(eng, 0, 0, b"short", b"t" * 8)

    def test_tamper_detected(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct, tag = eng.seal_many([(0, 1, bytes(64))])[0]
        bad = bytes([ct[0] ^ 1]) + ct[1:]
        with pytest.raises(AuthenticationError):
            _open(eng, 0, 1, bad, tag)

    def test_short_master_key_rejected(self):
        with pytest.raises(ValueError):
            SecureBlockEngine(b"short")

    @pytest.mark.parametrize("n", [0, 1, 4, 40])
    def test_batch_equals_scalar(self, n):
        eng = SecureBlockEngine(b"master key bytes")
        items = [(64 * i, i + 1, bytes([i]) * 64) for i in range(n)]
        sealed = eng.seal_many(items)

        enc_key = hashlib.sha256(b"repro/enc|" + MASTER).digest()

        def one(addr, version, pt):
            nonce = struct.pack("<QQ", addr, version)
            pad = hashlib.blake2b(nonce, key=enc_key, digest_size=64).digest()
            ct = bytes(p ^ k for p, k in zip(pt, pad))
            return ct, hashlib.blake2b(
                nonce + ct, key=_mac_key(MASTER), digest_size=8).digest()

        assert sealed == [one(*item) for item in items]
        opened = eng.open_many([
            (addr, version, ct, tag)
            for (addr, version, _), (ct, tag) in zip(items, sealed)
        ])
        assert opened == [pt for _, _, pt in items]

    def test_batch_failure_is_per_item(self):
        """A tampered item comes back as its exception; its neighbours
        are still checked and still decrypted."""
        eng = SecureBlockEngine(b"master key bytes")
        items = [(64 * i, 1, bytes([i]) * 64) for i in range(10)]
        requests = [
            (addr, version, ct, tag)
            for (addr, version, _), (ct, tag) in zip(items, eng.seal_many(items))
        ]
        addr, version, ct, tag = requests[4]
        requests[4] = (addr, version, bytes([ct[0] ^ 1]) + ct[1:], tag)
        opened = eng.open_many(requests)
        assert isinstance(opened[4], AuthenticationError)
        assert [o for i, o in enumerate(opened) if i != 4] == [
            pt for i, (_, _, pt) in enumerate(items) if i != 4
        ]

    def test_batch_wrong_size_rejected(self):
        eng = SecureBlockEngine(b"master key bytes")
        with pytest.raises(ValueError):
            eng.seal_many([(0, 0, bytes(64)), (64, 0, b"short")])
        with pytest.raises(ValueError):
            eng.open_many([(0, 0, b"short", b"t" * 8)])


class TestBucketMerkleTree:
    def make(self, levels=4):
        return BucketMerkleTree(levels)

    def digest(self, label: bytes) -> bytes:
        return hashlib.sha256(label).digest()

    def test_fresh_tree_verifies(self):
        t = self.make()
        for leaf in range(8):
            t.verify_path(leaf)

    def test_update_then_verify(self):
        t = self.make()
        t.update_buckets({9: self.digest(b"bucket 9")}, updates=1)
        for leaf in range(8):
            t.verify_path(leaf)
        assert t.updates == 1

    def test_root_changes_on_update(self):
        t = self.make()
        before = t.root
        t.update_buckets({0: self.digest(b"new")}, updates=1)
        assert t.root != before

    def test_tampered_content_detected(self):
        t = self.make()
        t.update_buckets({9: self.digest(b"legit")}, updates=1)
        t.tamper_content(9, self.digest(b"evil"))
        with pytest.raises(IntegrityError):
            raise t.verify_buckets({9: (None, 1)})[9]

    def test_tampered_digest_detected(self):
        t = self.make()
        t.tamper_digest(4, self.digest(b"evil"))
        # Bucket 4's parent chain no longer matches.
        with pytest.raises(IntegrityError):
            raise t.verify_buckets({4: (None, 1)})[4]

    def test_consistent_replay_caught_at_root(self):
        """The strongest off-chip attack: rewrite a whole consistent
        hash chain. The on-chip root still disagrees."""
        t = self.make()
        t.update_buckets({9: self.digest(b"v1")}, updates=1)
        old_content = t.stored_content(9)
        t.update_buckets({9: self.digest(b"v2")}, updates=1)
        # Attacker restores the old content and re-hashes consistently.
        t.tamper_content(9, old_content)
        t.tamper_rehash(9)
        with pytest.raises(IntegrityError):
            raise t.verify_buckets({9: (None, 1)})[9]

    def test_path_check_names_the_top_mismatch_batch_check_the_lowest(
            self):
        """One mid-path ``tamper_digest`` breaks the node and its parent.
        ``verify_path`` walks root first and names the parent, the
        topmost mismatch; ``verify_buckets`` names the node itself, the
        lowest mismatch on the checked bucket's chain. The recovery
        ladder quarantines ``exc.bucket``, so a readPath that folded
        its path check into its open batch would rebuild another
        bucket."""
        t = BucketMerkleTree(5)
        t.tamper_digest(3, self.digest(b"evil"))
        with pytest.raises(IntegrityError) as path:
            t.verify_path(0)   # path 0 -> 1 -> 3 -> 7 -> 15
        assert path.value.bucket == 1
        assert t.verify_buckets({15: (None, 1)})[15].bucket == 3

    def test_update_validates_args(self):
        """An out-of-range bucket is refused before any content moves."""
        t = self.make()
        with pytest.raises(ValueError):
            t.update_buckets({3: self.digest(b"x"), 100: bytes(32)}, updates=2)
        assert t.stored_content(3) == bytes(32)
        assert t.updates == 0

    def test_update_buckets_equals_update_sequence(self):
        """One batched rehash lands where rehashing each write's path
        from the bucket up, write by write, does -- including a bucket
        written twice and a parent/child pair."""
        seq, batch = self.make(), self.make()
        writes = [(9, b"a"), (4, b"b"), (9, b"c"), (14, b"d"), (0, b"e")]
        for bucket, label in writes:
            seq._content[bucket] = self.digest(label)
            b = bucket
            while True:
                seq._digest[b] = seq._combine(b)
                if b == 0:
                    break
                b = (b - 1) // 2
            seq._root_onchip = seq._digest[0]
            seq.updates += 1
        batch.update_buckets(
            {bucket: self.digest(label) for bucket, label in writes},
            updates=len(writes),
        )
        assert batch.root == seq.root
        assert batch._digest == seq._digest
        assert batch._content == seq._content
        assert batch.updates == seq.updates == 5
        for leaf in range(8):
            batch.verify_path(leaf)

    def test_update_buckets_validates_args(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.update_buckets({100: bytes(32)}, updates=1)
        with pytest.raises(ValueError):
            t.update_buckets({0: b"short"}, updates=1)

    def test_verify_bucket_counts_opens(self):
        """A check counts each bucket's ``opens``."""
        t = self.make()
        t.verify_buckets({9: (None, 1)})
        assert t.verifications == 1
        t.verify_buckets({9: (None, 3), 4: (None, 2)})
        assert t.verifications == 6

    def test_verify_buckets_hashes_each_shared_ancestor_once(
            self, monkeypatch):
        """Buckets 7 and 8 share parent 3 and the chain 3 -> 1 -> 0
        with it: five nodes, five rehashes (one-by-one walks make 10)."""
        t = self.make()
        calls = []
        combine = BucketMerkleTree._combine
        monkeypatch.setattr(BucketMerkleTree, "_combine",
                            lambda tree, b: calls.append(b) or combine(tree, b))
        assert t.verify_buckets({7: (None, 1), 8: (None, 2), 3: (None, 1)}) == {}
        assert sorted(calls) == [0, 1, 3, 7, 8]
        assert t.verifications == 4

    def test_verify_buckets_validates_args(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.verify_buckets({3: (None, 1), 15: (None, 1)})
        assert t.verifications == 0

    def test_two_level_tree(self):
        t = BucketMerkleTree(2)
        t.update_buckets({1: self.digest(b"x")}, updates=1)
        t.verify_path(0)
        t.verify_path(1)
