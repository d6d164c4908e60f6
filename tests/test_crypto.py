"""Tests for the crypto boundary (repro.crypto).

The ChaCha20 implementation is validated against the official RFC 8439
test vectors; the authenticator, engine, and Merkle tree are tested for
round-trips and -- more importantly -- for *detection*: every modelled
attack (bit flips, splicing, version rollback, consistent replay) must
raise.
"""

import hashlib
import importlib.util
import pickle
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.auth import AuthenticationError, BlockAuthenticator
from repro.crypto.chacha import (
    LANE_MIN_BLOCKS, ChaCha20, chacha20_xor, keystream_lanes, keystream_wide,
    xor_blocks,
)
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError


class TestChaCha20Rfc8439:
    """Official test vectors from RFC 8439."""

    def test_block_function_vector(self):
        """RFC 8439 section 2.3.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = ChaCha20(key, nonce).block(1)
        expect = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert block == expect

    def test_encryption_vector(self):
        """RFC 8439 section 2.4.2: the sunscreen plaintext."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = ChaCha20(key, nonce).xor(plaintext, counter=1)
        expect = bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d"
        )
        assert ciphertext == expect

    def test_keystream_block_zero_vector(self):
        """RFC 8439 section 2.3.2 uses counter=1; appendix A.1 test
        vector #1 is the all-zero state at counter 0."""
        block = ChaCha20(bytes(32), bytes(12)).block(0)
        expect = bytes.fromhex(
            "76b8e0ada0f13d90405d6ae55386bd28"
            "bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a37"
            "6a43b8f41518a11cc387b669b2ee6586"
        )
        assert block == expect


class TestChaCha20Lanes:
    """The lane kernel against the RFC vectors and the scalar block."""

    KEY = bytes(range(32))

    def test_block_function_vector(self):
        """RFC 8439 section 2.3.2, one lane."""
        nonce = bytes.fromhex("000000090000004a00000000")
        assert keystream_lanes(self.KEY, [nonce], [1]) == bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )

    def test_encryption_vector(self):
        """RFC 8439 section 2.4.2: two blocks from counter 1, two lanes."""
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        keystream = keystream_lanes(self.KEY, [nonce, nonce], [1, 2])
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, keystream))
        assert ciphertext == bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d"
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 68])
    def test_lanes_match_scalar_block(self, n):
        """Every lane has its own nonce *and* counter."""
        nonces = [struct.pack("<QI", 0x1000 + 64 * i, i + 1) for i in range(n)]
        counters = [(i * 0x01000193 + 7) & 0xFFFFFFFF for i in range(n)]
        counters[-1] = 0xFFFFFFFF
        out = keystream_lanes(self.KEY, nonces, counters)
        assert len(out) == 64 * n
        for i in range(n):
            assert out[64 * i:64 * i + 64] == ChaCha20(
                self.KEY, nonces[i]
            ).block(counters[i]), f"lane {i}"

    def test_no_lanes(self):
        assert keystream_lanes(self.KEY, [], []) == b""

    @pytest.mark.parametrize("counter", [-1, 2**32])
    def test_counter_range_same_on_both_paths(self, counter):
        nonce = b"n" * 12
        with pytest.raises(ValueError, match="counter out of range") as scalar:
            ChaCha20(self.KEY, nonce).block(counter)
        with pytest.raises(ValueError, match="counter out of range") as lanes:
            keystream_lanes(self.KEY, [nonce, nonce], [0, counter])
        assert str(scalar.value) == str(lanes.value)

    def test_lane_arguments_validated(self):
        with pytest.raises(ValueError):
            keystream_lanes(b"short", [b"n" * 12], [0])
        with pytest.raises(ValueError):
            keystream_lanes(self.KEY, [b"short"], [0])
        with pytest.raises(ValueError):
            keystream_lanes(self.KEY, [b"n" * 12], [0, 1])

    @pytest.mark.parametrize(
        "n", [0, 1, 3, 4, LANE_MIN_BLOCKS - 1, LANE_MIN_BLOCKS, 100]
    )
    def test_xor_blocks_matches_scalar_xor(self, n):
        """Same bytes on both sides of the wide/lanes cut-over, and at
        the 3-4 blocks a readPath batch holds."""
        nonces = [struct.pack("<QI", 64 * i, 3 * i) for i in range(n)]
        blocks = [bytes([i % 251]) * 64 for i in range(n)]
        assert xor_blocks(self.KEY, nonces, blocks) == [
            ChaCha20(self.KEY, nonce).xor(block)
            for nonce, block in zip(nonces, blocks)
        ]

    def test_xor_blocks_validates(self):
        with pytest.raises(ValueError):
            xor_blocks(self.KEY, [b"n" * 12], [b"short"])
        with pytest.raises(ValueError):
            xor_blocks(self.KEY, [b"n" * 12], [])


class TestChaCha20Wide:
    """The wide-integer kernel against the RFC vectors, the reference
    block and the lane kernel: three functions, one keystream."""

    KEY = bytes(range(32))

    def test_block_function_vector(self):
        """RFC 8439 section 2.3.2, one block."""
        nonce = bytes.fromhex("000000090000004a00000000")
        assert keystream_wide(self.KEY, [nonce], [1]) == bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )

    def test_encryption_vector(self):
        """RFC 8439 section 2.4.2: two blocks from counter 1."""
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        keystream = keystream_wide(self.KEY, [nonce, nonce], [1, 2])
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, keystream))
        assert ciphertext == bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d"
        )

    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, LANE_MIN_BLOCKS - 1, LANE_MIN_BLOCKS, 100]
    )
    def test_three_functions_one_keystream(self, n):
        """Every block has its own nonce *and* counter."""
        nonces = [struct.pack("<QI", 0x1000 + 64 * i, i + 1) for i in range(n)]
        counters = [(i * 0x01000193 + 7) & 0xFFFFFFFF for i in range(n)]
        if n:
            counters[-1] = 0xFFFFFFFF
        wide = keystream_wide(self.KEY, nonces, counters)
        assert wide == b"".join(
            ChaCha20(self.KEY, nonce).block(counter)
            for nonce, counter in zip(nonces, counters)
        )
        assert wide == keystream_lanes(self.KEY, nonces, counters)

    def test_all_ones_words_stay_in_their_lanes(self):
        """Key, nonce and counter words all 0xFFFFFFFF: every add
        carries and every rotate spills, in every lane at once."""
        key, nonce, counter = b"\xff" * 32, b"\xff" * 12, 0xFFFFFFFF
        block = ChaCha20(key, nonce).block(counter)
        for n in (1, 2, 5):
            assert keystream_wide(key, [nonce] * n, [counter] * n) == block * n

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 9),
        first=st.booleans(),
        key=st.sampled_from([bytes(32), b"\xff" * 32, bytes(range(32))]),
        odd=st.integers(0, 8),
        nonce=st.binary(min_size=12, max_size=12),
        counter=st.integers(0, 0xFFFFFFFF),
    )
    def test_extreme_neighbours_do_not_leak(
        self, n, first, key, odd, nonce, counter
    ):
        """Neighbouring lanes alternate all-zero / all-ones words (with
        one arbitrary block among them): a carry or a shifted-out bit
        crossing a lane boundary would change some block."""
        extremes = [(bytes(12), 0), (b"\xff" * 12, 0xFFFFFFFF)]
        lanes = [extremes[(i + first) % 2] for i in range(n)]
        lanes[odd % n] = (nonce, counter)
        nonces = [lane[0] for lane in lanes]
        counters = [lane[1] for lane in lanes]
        assert keystream_wide(key, nonces, counters) == b"".join(
            ChaCha20(key, nc).block(ct) for nc, ct in lanes
        )

    @pytest.mark.parametrize("counter", [-1, 2**32])
    def test_counter_range_as_the_lane_kernel(self, counter):
        nonce = b"n" * 12
        with pytest.raises(ValueError, match="counter out of range") as lanes:
            keystream_lanes(self.KEY, [nonce, nonce], [0, counter])
        with pytest.raises(ValueError, match="counter out of range") as wide:
            keystream_wide(self.KEY, [nonce, nonce], [0, counter])
        assert str(lanes.value) == str(wide.value)

    @pytest.mark.parametrize("args", [
        (b"short", [b"n" * 12], [0]),
        (bytes(range(32)), [b"short"], [0]),
        (bytes(range(32)), [b"n" * 12], [0, 1]),
    ])
    def test_arguments_validated_as_the_lane_kernel(self, args):
        with pytest.raises(ValueError) as lanes:
            keystream_lanes(*args)
        with pytest.raises(ValueError) as wide:
            keystream_wide(*args)
        assert str(lanes.value) == str(wide.value)


class TestCutoverTool:
    """``tools/chacha_cutover.py``: the table behind LANE_MIN_BLOCKS."""

    @pytest.fixture
    def tool(self):
        path = Path(__file__).resolve().parents[1] / "tools/chacha_cutover.py"
        spec = importlib.util.spec_from_file_location("chacha_cutover", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    ARGS = ["--repeats", "1", "--budget-ms", "0.1", "--sizes", "1", "3"]

    def test_prints_the_table_and_the_constant(self, tool, capsys):
        assert tool.main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "wide" in out and "lanes" in out
        assert f"LANE_MIN_BLOCKS = {LANE_MIN_BLOCKS}" in out

    def test_disagreement_on_one_lane_fails(self, tool, capsys, monkeypatch):
        def wrong_last_lane(key, nonces, counters):
            good = keystream_wide(key, nonces, counters)
            return good[:-1] + bytes([good[-1] ^ 1])

        monkeypatch.setattr(tool, "keystream_wide", wrong_last_lane)
        assert tool.main(self.ARGS) == 1
        assert "N=3: wide lane 2 differs" in capsys.readouterr().err

    def test_break_even_needs_lanes_ahead_from_there_on(self, tool):
        sizes = [1, 8, 32, 40, 48]
        assert tool.break_even(sizes, [3, 6, 19, 21, 25], [20] * 5) == 40
        # One noisy early win for lanes is not the break-even.
        assert tool.break_even(sizes, [3, 21, 19, 21, 25], [20] * 5) == 40
        assert tool.break_even(sizes, [3, 6, 9, 12, 15], [20] * 5) is None


class TestChaCha20Api:
    def test_xor_roundtrip(self):
        c = ChaCha20(b"k" * 32, b"n" * 12)
        msg = b"hello oram world" * 5
        assert c.xor(c.xor(msg)) == msg

    def test_one_shot_helper(self):
        key, nonce = b"k" * 32, b"n" * 12
        ct = chacha20_xor(key, nonce, b"data")
        assert chacha20_xor(key, nonce, ct) == b"data"

    def test_different_counters_differ(self):
        c = ChaCha20(b"k" * 32, b"n" * 12)
        assert c.block(0) != c.block(1)

    def test_different_nonces_differ(self):
        a = ChaCha20(b"k" * 32, b"a" * 12).block(0)
        b = ChaCha20(b"k" * 32, b"b" * 12).block(0)
        assert a != b

    def test_keystream_prefix_property(self):
        c = ChaCha20(b"k" * 32, b"n" * 12)
        assert c.keystream(100)[:64] == c.block(0)

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            ChaCha20(b"short", b"n" * 12)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            ChaCha20(b"k" * 32, b"short")

    def test_bad_counter(self):
        with pytest.raises(ValueError):
            ChaCha20(b"k" * 32, b"n" * 12).block(-1)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            ChaCha20(b"k" * 32, b"n" * 12).keystream(-1)


class TestBlockAuthenticator:
    def test_roundtrip(self):
        auth = BlockAuthenticator(b"x" * 32)
        tag = auth.tag(0x1000, 3, b"c" * 64)
        auth.verify(0x1000, 3, b"c" * 64, tag)

    def test_tampered_ciphertext_rejected(self):
        auth = BlockAuthenticator(b"x" * 32)
        tag = auth.tag(0x1000, 3, b"c" * 64)
        with pytest.raises(AuthenticationError):
            auth.verify(0x1000, 3, b"d" + b"c" * 63, tag)

    def test_spliced_address_rejected(self):
        auth = BlockAuthenticator(b"x" * 32)
        tag = auth.tag(0x1000, 3, b"c" * 64)
        with pytest.raises(AuthenticationError):
            auth.verify(0x2000, 3, b"c" * 64, tag)

    def test_rolled_back_version_rejected(self):
        auth = BlockAuthenticator(b"x" * 32)
        tag = auth.tag(0x1000, 3, b"c" * 64)
        with pytest.raises(AuthenticationError):
            auth.verify(0x1000, 2, b"c" * 64, tag)

    def test_tag_is_truncated(self):
        auth = BlockAuthenticator(b"x" * 32)
        assert len(auth.tag(0, 0, b"")) == auth.TAG_BYTES

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            BlockAuthenticator(b"tiny")

    def test_pickle_roundtrip_keeps_the_key(self):
        """Checkpoints pickle the engine; the cached HMAC state cannot
        be pickled and must be rebuilt from the key."""
        auth = BlockAuthenticator(b"k" * 16)
        clone = pickle.loads(pickle.dumps(auth))
        assert clone.tag(64, 3, b"c" * 64) == auth.tag(64, 3, b"c" * 64)

    def test_negative_inputs_rejected(self):
        auth = BlockAuthenticator(b"x" * 32)
        with pytest.raises(ValueError):
            auth.tag(-1, 0, b"")


class TestSecureBlockEngine:
    def test_seal_open_roundtrip(self):
        eng = SecureBlockEngine(b"master key bytes")
        pt = bytes(range(64))
        ct, tag = eng.seal(0xABC0, 7, pt)
        assert eng.open(0xABC0, 7, ct, tag) == pt

    def test_ciphertext_differs_from_plaintext(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct, _ = eng.seal(0, 1, bytes(64))
        assert ct != bytes(64)

    def test_same_plaintext_two_versions_unrelated(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct1, _ = eng.seal(0, 1, bytes(64))
        ct2, _ = eng.seal(0, 2, bytes(64))
        assert ct1 != ct2

    def test_same_plaintext_two_addresses_unrelated(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct1, _ = eng.seal(64, 1, bytes(64))
        ct2, _ = eng.seal(128, 1, bytes(64))
        assert ct1 != ct2

    def test_wrong_size_rejected(self):
        eng = SecureBlockEngine(b"master key bytes")
        with pytest.raises(ValueError):
            eng.seal(0, 0, b"short")
        with pytest.raises(ValueError):
            eng.open(0, 0, b"short", b"t" * 8)

    def test_tamper_detected(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct, tag = eng.seal(0, 1, bytes(64))
        bad = bytes([ct[0] ^ 1]) + ct[1:]
        with pytest.raises(AuthenticationError):
            eng.open(0, 1, bad, tag)

    def test_short_master_key_rejected(self):
        with pytest.raises(ValueError):
            SecureBlockEngine(b"short")

    @pytest.mark.parametrize("n", sorted({0, 1, 4, LANE_MIN_BLOCKS, 40}))
    def test_batch_equals_scalar(self, n):
        eng = SecureBlockEngine(b"master key bytes")
        items = [(64 * i, i + 1, bytes([i]) * 64) for i in range(n)]
        sealed = eng.seal_many(items)
        assert sealed == [eng.seal(*item) for item in items]
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
        t.update_bucket(9, self.digest(b"bucket 9"))
        for leaf in range(8):
            t.verify_path(leaf)
        assert t.updates == 1

    def test_root_changes_on_update(self):
        t = self.make()
        before = t.root
        t.update_bucket(0, self.digest(b"new"))
        assert t.root != before

    def test_tampered_content_detected(self):
        t = self.make()
        t.update_bucket(9, self.digest(b"legit"))
        t.tamper_content(9, self.digest(b"evil"))
        with pytest.raises(IntegrityError):
            t.verify_bucket(9)

    def test_tampered_digest_detected(self):
        t = self.make()
        t.tamper_digest(4, self.digest(b"evil"))
        # Bucket 4's parent chain no longer matches.
        with pytest.raises(IntegrityError):
            t.verify_bucket(4)

    def test_consistent_replay_caught_at_root(self):
        """The strongest off-chip attack: rewrite a whole consistent
        hash chain. The on-chip root still disagrees."""
        t = self.make()
        t.update_bucket(9, self.digest(b"v1"))
        old_content = t.stored_content(9)
        t.update_bucket(9, self.digest(b"v2"))
        # Attacker restores the old content and re-hashes consistently.
        t.tamper_content(9, old_content)
        t.tamper_rehash(9)
        with pytest.raises(IntegrityError):
            t.verify_bucket(9)

    def test_update_validates_args(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.update_bucket(100, bytes(32))
        with pytest.raises(ValueError):
            t.update_bucket(0, b"short")

    def test_update_buckets_equals_update_sequence(self):
        """One batched rehash lands where the per-call rehashes do,
        including a bucket written twice and a parent/child pair."""
        seq, batch = self.make(), self.make()
        writes = [(9, b"a"), (4, b"b"), (9, b"c"), (14, b"d"), (0, b"e")]
        for bucket, label in writes:
            seq.update_bucket(bucket, self.digest(label))
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
        t = self.make()
        t.verify_bucket(9, opens=3)
        assert t.verifications == 3

    def test_two_level_tree(self):
        t = BucketMerkleTree(2)
        t.update_bucket(1, self.digest(b"x"))
        t.verify_path(0)
        t.verify_path(1)
