"""Tests for the oblivious key-value store (repro.app.kvstore)."""

import numpy as np
import pytest

from repro.app.kvstore import KVFullError, ObliviousKV
from repro.core import schemes
from repro.core.ab_oram import build_oram


@pytest.fixture(scope="module")
def kv():
    return ObliviousKV.create(scheme="ab", levels=8, seed=1)


def fresh(levels=7, encrypted=True, pad_chunks=1):
    if not encrypted:
        oram = build_oram(schemes.by_name("baseline", levels), seed=2,
                          store_data=True)
        return ObliviousKV(oram, pad_chunks=pad_chunks)
    return ObliviousKV.create(scheme="baseline", levels=levels, seed=2,
                              pad_chunks=pad_chunks)


class TestBasics:
    def test_put_get_roundtrip(self, kv):
        kv.put(b"k1", b"value one")
        assert kv.get(b"k1") == b"value one"

    def test_string_keys_normalized(self, kv):
        kv.put("strkey", b"v")
        assert kv.get(b"strkey") == b"v"
        assert b"strkey" in kv._directory

    def test_missing_key(self, kv):
        assert kv.get(b"missing") is None
        assert b"missing" not in kv._directory

    def test_empty_value(self, kv):
        kv.put(b"empty", b"")
        assert kv.get(b"empty") == b""

    def test_len_and_keys(self):
        kv = fresh()
        kv.put(b"a", b"1")
        kv.put(b"b", b"2")
        assert set(kv._directory) == {b"a", b"b"}

    def test_type_errors(self, kv):
        with pytest.raises(TypeError):
            kv.put(123, b"v")
        with pytest.raises(TypeError):
            kv.put(b"k", "not bytes")


class TestChunking:
    def test_multiblock_value(self):
        kv = fresh()
        value = bytes(range(256)) * 3  # 768 B -> 13 chunks of 60B
        kv.put(b"big", value)
        assert kv.get(b"big") == value
        assert len(kv._directory[b"big"]) == -(-768 // kv.chunk_payload)

    def test_exactly_one_chunk_boundary(self):
        kv = fresh()
        v = b"x" * kv.chunk_payload
        kv.put(b"edge", v)
        assert len(kv._directory[b"edge"]) == 1
        assert kv.get(b"edge") == v

    def test_overwrite_grows_chain(self):
        kv = fresh()
        kv.put(b"g", b"small")
        used1 = kv.used_blocks
        kv.put(b"g", b"y" * 500)
        assert kv.used_blocks > used1
        assert kv.get(b"g") == b"y" * 500

    def test_overwrite_shrinks_chain(self):
        kv = fresh()
        kv.put(b"s", b"y" * 500)
        used1 = kv.used_blocks
        kv.put(b"s", b"tiny")
        assert kv.used_blocks < used1
        assert kv.get(b"s") == b"tiny"

    def test_binary_safety(self):
        kv = fresh()
        value = bytes(np.random.default_rng(0).integers(0, 256, 300,
                                                        dtype=np.uint8))
        kv.put(b"bin", value)
        assert kv.get(b"bin") == value


class TestDelete:
    def test_delete_frees_blocks(self):
        kv = fresh()
        kv.put(b"d", b"z" * 400)
        used = kv.used_blocks
        assert kv.delete(b"d")
        assert kv.used_blocks == used - (-(-400 // kv.chunk_payload))
        assert kv.get(b"d") is None

    def test_delete_missing(self):
        kv = fresh()
        assert not kv.delete(b"never")

    def test_blocks_reused_after_delete(self):
        kv = fresh()
        kv.put(b"a", b"1" * 200)
        chain = list(kv._directory[b"a"])
        kv.delete(b"a")
        kv.put(b"b", b"2" * 200)
        assert set(kv._directory[b"b"]) & set(chain)


class TestCapacity:
    def test_full_store_raises(self):
        kv = fresh(levels=4)  # tiny ORAM
        with pytest.raises(KVFullError):
            for i in range(10**6):
                kv.put(f"k{i}".encode(), b"x" * 300)

    @pytest.mark.parametrize("existing", [False, True])
    def test_refused_put_leaves_the_store_as_it_was(self, existing):
        """A put that does not fit takes nothing off the free list and
        grows no chain -- on a new key and on one that already has a
        (shorter) chain -- and a put that fits still succeeds after."""
        kv = fresh(levels=6, encrypted=False)
        if existing:
            kv.put(b"big", b"v" * kv.chunk_payload)       # one chunk
        filler = 0
        while kv.free_blocks > 2:
            kv.put(b"fill%d" % filler, b"f")
            filler += 1
        before = (kv.free_blocks, kv.used_blocks,
                  list(kv._directory.get(b"big", ())), kv.get(b"big"),
                  len(kv._directory))
        assert before[0] == 2
        # New key: three chunks into two free blocks. Existing key: its
        # one block plus the two free ones still fall one short of four.
        chunks = 4 if existing else 3
        with pytest.raises(KVFullError):
            kv.put(b"big", b"w" * (chunks * kv.chunk_payload))
        assert (kv.free_blocks, kv.used_blocks,
                list(kv._directory.get(b"big", ())), kv.get(b"big"),
                len(kv._directory)) == before
        kv.put(b"big", b"w" * ((chunks - 1) * kv.chunk_payload))
        assert kv.get(b"big") == b"w" * ((chunks - 1) * kv.chunk_payload)
        assert kv.free_blocks == 0

    def test_stats_shape(self, kv):
        s = kv.stats()
        for field in ("keys", "used_blocks", "free_blocks", "puts", "gets",
                      "deletes", "oram_accesses", "scheme"):
            assert field in s
        assert s["scheme"] == "AB"


class TestPadding:
    def test_pad_chunks_quantizes_chain_lengths(self):
        kv = fresh(pad_chunks=4)
        kv.put(b"tiny", b"x")
        kv.put(b"mid", b"x" * 150)
        assert len(kv._directory[b"tiny"]) == 4
        assert len(kv._directory[b"mid"]) == 4

    def test_padded_access_counts_identical(self):
        """Two values in the same size bucket are indistinguishable by
        ORAM access count (the padding's purpose)."""
        kv = fresh(pad_chunks=4)
        kv.put(b"a", b"x")
        before = kv.oram.online_accesses
        kv.get(b"a")
        cost_small = kv.oram.online_accesses - before
        kv.put(b"b", b"y" * 200)
        before = kv.oram.online_accesses
        kv.get(b"b")
        cost_big = kv.oram.online_accesses - before
        assert cost_small == cost_big

    def test_bad_pad(self):
        with pytest.raises(ValueError):
            fresh(pad_chunks=0)


class TestUnencryptedBackend:
    def test_plaintext_mode_roundtrip(self):
        kv = fresh(encrypted=False)
        kv.put(b"p", b"plain value" * 10)
        assert kv.get(b"p") == b"plain value" * 10

    def test_encrypted_tree_holds_ciphertext(self):
        kv = fresh(encrypted=True)
        kv.put(b"c", b"SENTINEL-PLAINTEXT")
        ds = kv.oram.datastore
        assert b"SENTINEL-PLAINTEXT" not in bytes(ds._memory)


class TestChurn:
    def test_mixed_workload_consistent(self):
        kv = fresh(levels=8)
        rng = np.random.default_rng(3)
        shadow = {}
        for i in range(150):
            key = f"k{int(rng.integers(12))}".encode()
            roll = rng.random()
            if roll < 0.5:
                value = bytes(rng.integers(0, 256, int(rng.integers(1, 200)),
                                           dtype=np.uint8))
                kv.put(key, value)
                shadow[key] = value
            elif roll < 0.8:
                assert kv.get(key) == shadow.get(key)
            else:
                assert kv.delete(key) == (key in shadow)
                shadow.pop(key, None)
        kv.oram.check_invariants()
        assert kv.used_blocks == sum(
            len(c) for c in kv._directory.values()
        )
