"""Property-based tests for the crypto boundary."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.auth import AuthenticationError
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError

ENGINE = SecureBlockEngine(b"property test master key")

ADDRS = st.integers(0, 2**48)
VERSIONS = st.integers(0, 2**31)
BLOCKS = st.binary(min_size=64, max_size=64)


class TestEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS)
    def test_seal_open_roundtrip(self, addr, version, pt):
        ct, tag = ENGINE.seal(addr, version, pt)
        assert ENGINE.open(addr, version, ct, tag) == pt

    @settings(max_examples=60, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS,
           flip=st.integers(0, 63), bit=st.integers(0, 7))
    def test_any_single_bit_flip_detected(self, addr, version, pt, flip, bit):
        ct, tag = ENGINE.seal(addr, version, pt)
        bad = bytearray(ct)
        bad[flip] ^= 1 << bit
        with pytest.raises(AuthenticationError):
            ENGINE.open(addr, version, bytes(bad), tag)

    @settings(max_examples=40, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS, other=ADDRS)
    def test_splice_to_other_address_detected(self, addr, version, pt, other):
        if other == addr:
            other += 64
        ct, tag = ENGINE.seal(addr, version, pt)
        with pytest.raises(AuthenticationError):
            ENGINE.open(other, version, ct, tag)

    @settings(max_examples=40, deadline=None)
    @given(addr=ADDRS, version=st.integers(0, 2**31 - 2), pt=BLOCKS)
    def test_version_replay_detected(self, addr, version, pt):
        ct, tag = ENGINE.seal(addr, version, pt)
        with pytest.raises(AuthenticationError):
            ENGINE.open(addr, version + 1, ct, tag)

    @settings(max_examples=40, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS)
    def test_ciphertext_never_equals_plaintext(self, addr, version, pt):
        ct, _ = ENGINE.seal(addr, version, pt)
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
        ct, _ = ENGINE.seal(addr, version, pt)
        pad = ENGINE.keystream(addr, version)
        assert bytes(c ^ p for c, p in zip(ct, pad)) == pt

    @settings(max_examples=40, deadline=None)
    @given(v1=NONCE, v2=NONCE)
    def test_distinct_counters_distinct_blocks(self, v1, v2):
        one, two = ENGINE.keystream(64, v1), ENGINE.keystream(64, v2)
        assert (one == two) == (v1 == v2)

    @settings(max_examples=30, deadline=None)
    @given(addr=NONCE, version=NONCE)
    def test_keystream_length_exact(self, addr, version):
        assert len(ENGINE.keystream(addr, version)) == ENGINE.BLOCK_BYTES


class TestMerkleProperties:
    @settings(max_examples=25, deadline=None)
    @given(levels=st.integers(2, 7), data=st.data())
    def test_updates_keep_tree_verifiable(self, levels, data):
        import hashlib
        tree = BucketMerkleTree(levels)
        n = (1 << levels) - 1
        for i in range(data.draw(st.integers(1, 8))):
            bucket = data.draw(st.integers(0, n - 1))
            tree.update_bucket(
                bucket, hashlib.sha256(f"u{i}".encode()).digest()
            )
        for leaf in range(min(4, 1 << (levels - 1))):
            tree.verify_path(leaf)

    @settings(max_examples=25, deadline=None)
    @given(levels=st.integers(2, 6), data=st.data())
    def test_any_content_tamper_detected(self, levels, data):
        import hashlib
        tree = BucketMerkleTree(levels)
        n = (1 << levels) - 1
        victim = data.draw(st.integers(0, n - 1))
        tree.update_bucket(victim, hashlib.sha256(b"legit").digest())
        tree.tamper_content(victim, hashlib.sha256(b"evil").digest())
        with pytest.raises(IntegrityError):
            tree.verify_bucket(victim)
