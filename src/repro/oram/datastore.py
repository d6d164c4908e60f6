"""Encrypted, authenticated payload storage for the ORAM tree.

The timing simulator only counts accesses; this module is the
*functional* memory image for deployments and end-to-end tests: a byte
array laid out exactly like the physical tree
(:class:`~repro.mem.layout.TreeLayout`), where every slot holds a
sealed 64B block -- XORed with a keyed-BLAKE2b pad, MAC'd against its
physical address and write version, and covered by a bucket-granular
Merkle tree whose root stays on-chip (:mod:`repro.crypto`).

The Ring ORAM controller drives it through two calls, each with a
batch form that does the same work for many slots at once:

- ``seal_slot(bucket, slot, plaintext)`` / ``seal_many(items)``
  whenever a reshuffle (or a remote allocation) writes slots;
- ``open_slot(bucket, slot)`` / ``open_many(slots)`` whenever a
  readPath/eviction consumes a slot whose plaintext matters (the real
  target, a green block, or a resident collected for eviction). Dummy
  reads are discarded unverified, exactly as a real controller
  discards them undecrypted.

Tamper anywhere -- payload bytes, a tag, a version, a Merkle digest --
and the next open of an affected block raises (``open_slot``) or comes
back as that exception in the block's place (``open_many``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.crypto.auth import AuthenticationError
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError
from repro.mem.layout import TreeLayout
from repro.oram import tree as tree_mod
from repro.oram.config import OramConfig


class SlotSnapshot(NamedTuple):
    """One slot's off-chip state at a point in time.

    Everything an off-chip adversary can capture and later replay: the
    ciphertext, its MAC tag and the version it was sealed under. The
    on-chip trusted version counter is *not* part of the snapshot.
    """

    ciphertext: bytes
    tag: bytes
    version: int


def pad_block(value: bytes, block_bytes: int = 64) -> bytes:
    """Right-pad a payload to the block size (rejects oversize)."""
    if not isinstance(value, (bytes, bytearray)):
        raise TypeError(f"encrypted payloads must be bytes, got {type(value)}")
    if len(value) > block_bytes:
        raise ValueError(
            f"payload of {len(value)} bytes exceeds the {block_bytes}B block"
        )
    return bytes(value) + b"\x00" * (block_bytes - len(value))


class EncryptedTreeStore:
    """Sealed byte image of the ORAM data tree.

    Slot ``(b, s)`` is entry ``i = b * z_max + s`` of every per-slot
    table: its version in the flat view of ``_version``, its tag at
    ``_tags[i * 8:(i + 1) * 8]``, its sealed flag at ``_sealed[i]``;
    its bytes sit at ``_offsets[b] + s * 64`` in ``_memory``, the
    physical address (:class:`~repro.mem.layout.TreeLayout`) that is
    also its nonce. Every seal, open and snapshot derives these inline.
    """

    def __init__(
        self,
        cfg: OramConfig,
        master_key: bytes,
        seed: int = 0,
        with_integrity: bool = True,
    ) -> None:
        if cfg.block_bytes != SecureBlockEngine.BLOCK_BYTES:
            raise ValueError(
                f"a sealed store needs {SecureBlockEngine.BLOCK_BYTES}-byte "
                f"blocks (one cipher block per slot), got "
                f"block_bytes={cfg.block_bytes}"
            )
        self.cfg = cfg
        layout = TreeLayout(cfg)
        # The layout's first byte of each bucket, as plain ints.
        self._offsets: List[int] = layout.first_byte.tolist()
        self.engine = SecureBlockEngine(master_key)
        self._memory = bytearray(layout.data_bytes)
        self._version = np.zeros((cfg.n_buckets, cfg.z_max), dtype=np.uint32)
        # Tags in one flat table, so a bucket's tags are one slice. A
        # never-sealed slot's tag is zero bytes (what the content digest
        # has always hashed in its place); the mask tells it from a
        # sealed one.
        self._z_max = cfg.z_max
        self._tag_bytes = self.engine.tag_bytes
        self._tags = bytearray(cfg.n_buckets * self._z_max * self._tag_bytes)
        self._sealed = bytearray(cfg.n_buckets * self._z_max)
        self._z_by_level = [g.z_total for g in cfg.geometry]
        self.integrity: Optional[BucketMerkleTree] = (
            BucketMerkleTree(cfg.levels) if with_integrity else None
        )
        self._rng = np.random.default_rng(seed)
        self._sealed_buckets: Set[int] = set()
        self.seals = 0
        self.opens = 0

    def _index(self, bucket: int, slot: int) -> int:
        """Slot ``(bucket, slot)``'s entry in the per-slot tables;
        ``IndexError`` outside the tree (the batches check inline)."""
        if not (0 <= bucket < self.cfg.n_buckets and 0 <= slot < self._z_max):
            raise IndexError(f"slot {(bucket, slot)} out of range")
        return bucket * self._z_max + slot

    def _versions(self) -> memoryview:
        """The version table as one flat ``uint32`` view, slot ``(b, s)``
        at ``b * z_max + s``: a scalar read or write without numpy's
        per-element cost. Made per call -- a view does not pickle."""
        return memoryview(self._version).cast("B").cast("I")

    # ------------------------------------------------------------- sealing

    def is_sealed(self, bucket: int, slot: int) -> bool:
        """Whether the slot has ever been sealed (and so can be opened)."""
        return bool(self._sealed[bucket * self._z_max + slot])

    def seal_slot(self, bucket: int, slot: int, plaintext: bytes) -> None:
        """Encrypt + authenticate one slot and update the Merkle path
        (the batch of one of :meth:`seal_many`)."""
        plaintext = pad_block(plaintext, self.cfg.block_bytes)
        self.seal_many([(bucket, slot, plaintext)])

    def _dummy_plaintext(self, n: int = 1) -> bytes:
        """Fresh random filler for ``n`` dummy seals (dummies must look
        like data): raw words, the bytes of ``n`` ``integers(0, 256, 64,
        dtype=uint8)`` calls (``tests/test_rng_identities.py``). Split
        out so wrappers can route dummy seals through their own
        ``seal_slot`` without perturbing the RNG stream."""
        return self._rng.bit_generator.random_raw(
            n * self.cfg.block_bytes // 8
        ).astype("<u8", copy=False).tobytes()

    def seal_many(
        self, items: Sequence[Tuple[int, int, Optional[bytes]]]
    ) -> None:
        """Seal a batch of slots in order; ``None`` payload means dummy.

        A whole evictPath's (or one reshuffle's) write-back in one
        call. The end state -- memory, tags, versions, Merkle root,
        dummy-filler RNG stream, ``seals`` and ``integrity.updates`` --
        is what ``seal_many`` of one item by item would leave;
        fault campaigns and integrity counters pin that. What the batch
        shares is the engine call (one keystream XOR), the Merkle work
        (one content digest per distinct bucket, each affected node
        rehashed once) and the dummy filler (one draw for all of it).
        """
        if not items:
            return
        bb = self.cfg.block_bytes
        n_buckets, z_max = self.cfg.n_buckets, self._z_max
        # Reject a bad slot or payload before any version or RNG state
        # moves. A block-sized ``bytes`` (every payload the controller
        # hands in) is already what ``pad_block`` would return.
        n_dummies, odd = 0, False
        for bucket, slot, plaintext in items:
            if not (0 <= bucket < n_buckets and 0 <= slot < z_max):
                raise IndexError(f"slot {(bucket, slot)} out of range")
            if plaintext is None:
                n_dummies += 1
            elif type(plaintext) is not bytes or len(plaintext) != bb:
                pad_block(plaintext, bb)
                odd = True
        if odd:
            items = [(b, s, p if p is None else pad_block(p, bb))
                     for b, s, p in items]
        # Dummy k takes block k of the filler: what the k-th
        # _dummy_plaintext() call would draw.
        filler = self._dummy_plaintext(n_dummies) if n_dummies else b""
        at = 0
        offsets, version = self._offsets, self._versions()
        requests = []
        for bucket, slot, plaintext in items:
            # A slot repeated inside the batch gets a fresh version
            # each time, exactly as back-to-back seal_slot calls would.
            i = bucket * z_max + slot
            v = version[i] + 1
            version[i] = v
            addr = offsets[bucket] + slot * bb
            if plaintext is None:
                plaintext = filler[at:at + bb]
                at += bb
            requests.append((addr, v, plaintext))
        # Slice stores through memoryviews: half a bytearray's cost.
        memory, tags = memoryview(self._memory), memoryview(self._tags)
        sealed, tb = self._sealed, self._tag_bytes
        for (bucket, slot, _), (addr, _, _), (ciphertext, tag) in zip(
            items, requests, self.engine.seal_many(requests)
        ):
            memory[addr:addr + bb] = ciphertext
            i = bucket * z_max + slot
            tags[i * tb:i * tb + tb] = tag
            sealed[i] = 1
        buckets = {bucket for bucket, _, _ in items}
        self._sealed_buckets |= buckets
        if self.integrity is not None:
            self.integrity.update_buckets(self._content_digests(buckets),
                                          updates=len(items))
        self.seals += len(items)

    # ------------------------------------------------------------- opening

    def open_slot(self, bucket: int, slot: int) -> bytes:
        """Verify (MAC + Merkle) and decrypt one slot (the batch of one
        of :meth:`open_many`, its failure raised)."""
        outcome = self.open_many([(bucket, slot)])[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def open_many(
        self, slots: Sequence[Tuple[int, int]]
    ) -> List[Union[bytes, AuthenticationError, IntegrityError]]:
        """Verify and decrypt a batch of ``(bucket, slot)``, in order.

        Per slot, the plaintext -- or, in its place, the
        :class:`IntegrityError` / :class:`AuthenticationError` that
        ``open_slot`` would have raised, so one bad slot costs the
        caller that slot only. ``KeyError``, before anything is checked,
        if a slot was never sealed. One Merkle check covers the batch
        (:meth:`BucketMerkleTree.verify_buckets`: each bucket's content
        once, each shared ancestor once) -- recomputing the content
        digests from the (untrusted) tags and versions just fetched
        catches dropped writes whose stale tag still hangs off a
        consistent hash chain; every MAC is checked before any plaintext
        of the batch exists (:meth:`SecureBlockEngine.open_many`).
        Counters land as the scalar calls would leave them.
        """
        if not slots:
            return []
        n_buckets, z_max, sealed = self.cfg.n_buckets, self._z_max, self._sealed
        # Opens per bucket, in first-seen order.
        opens: Dict[int, int] = {}
        for bucket, slot in slots:
            if not (0 <= bucket < n_buckets and 0 <= slot < z_max):
                raise IndexError(f"slot {(bucket, slot)} out of range")
            if not sealed[bucket * z_max + slot]:
                raise KeyError(f"slot {(bucket, slot)} was never sealed")
            opens[bucket] = opens.get(bucket, 0) + 1
        broken: Dict[int, IntegrityError] = {}
        if self.integrity is not None:
            digests = self._content_digests(opens)
            broken = self.integrity.verify_buckets({
                bucket: (digests[bucket], n) for bucket, n in opens.items()
            })
        intact = [w for w in slots if w[0] not in broken] if broken else slots
        bb, tb = self.cfg.block_bytes, self._tag_bytes
        memory, tags, offsets = self._memory, self._tags, self._offsets
        version = self._versions()
        requests = []
        for bucket, slot in intact:
            addr = offsets[bucket] + slot * bb
            i = bucket * z_max + slot
            requests.append((
                addr, version[i], memory[addr:addr + bb],
                tags[i * tb:i * tb + tb],
            ))
        self.opens += len(intact)
        opened = self.engine.open_many(requests)
        if not broken:
            return opened
        rest = iter(opened)
        return [broken[bucket] if bucket in broken else next(rest)
                for bucket, _ in slots]

    # ----------------------------------------------------------- integrity

    def _content_digests(self, buckets) -> Dict[int, bytes]:
        """Each bucket's Merkle leaf content: SHA-256 of its slots'
        versions (a flat byte view of the table), then of their tags."""
        z_by_level, z_max, tb = self._z_by_level, self._z_max, self._tag_bytes
        versions, tags, out = memoryview(self._version).cast("B"), self._tags, {}
        for b in buckets:
            z = z_by_level[(b + 1).bit_length() - 1]
            i = b * z_max
            h = hashlib.sha256(versions[4 * i:4 * (i + z)])
            h.update(tags[i * tb:(i + z) * tb])
            out[b] = h.digest()
        return out

    def verify_path(self, leaf: int) -> None:
        """Verify one path's buckets end to end (readPath prefetch check).

        For every sealed bucket on the path, the content digest is
        recomputed from the tags/versions currently in memory and
        checked against the Merkle tree's stored copy, then the whole
        hash chain is checked against the on-chip root, in one call of
        :meth:`BucketMerkleTree.verify_path`. Never-sealed buckets only
        participate in the chain check (their stored content is the
        initialization sentinel).
        """
        if self.integrity is None:
            return
        sealed = self._sealed_buckets
        self.integrity.verify_path(leaf, self._content_digests([
            b for b in tree_mod.path_buckets(leaf, self.cfg.levels)
            if b in sealed
        ]))

    # ---------------------------------------------------- snapshot/restore

    def snapshot_slot(self, bucket: int, slot: int) -> SlotSnapshot:
        """Capture a slot's off-chip state (what an adversary could keep);
        ``KeyError`` for a slot never sealed."""
        i = self._index(bucket, slot)
        if not self._sealed[i]:
            raise KeyError(f"slot {(bucket, slot)} was never sealed")
        bb, tb = self.cfg.block_bytes, self._tag_bytes
        addr = self._offsets[bucket] + slot * bb
        return SlotSnapshot(
            bytes(self._memory[addr:addr + bb]),
            bytes(self._tags[i * tb:(i + 1) * tb]),
            self._version.item(bucket, slot),
        )

    def restore_slot(
        self,
        bucket: int,
        slot: int,
        snap: SlotSnapshot,
        restore_version: bool = False,
        rehash: bool = False,
    ) -> None:
        """Adversarially write an old sealed triple back (attack hook).

        ``restore_version`` also rolls back the untrusted version word
        (a full replay); ``rehash`` additionally rebuilds the Merkle
        chain consistently -- everything an off-chip adversary controls.
        The on-chip root copy is never touched.
        """
        i = self._index(bucket, slot)
        bb, tb = self.cfg.block_bytes, self._tag_bytes
        addr = self._offsets[bucket] + slot * bb
        self._memory[addr:addr + bb] = snap.ciphertext
        self._tags[i * tb:(i + 1) * tb] = snap.tag
        self._sealed[i] = 1
        if restore_version:
            self._version[bucket, slot] = snap.version
        if rehash and self.integrity is not None:
            self.integrity.tamper_content(
                bucket, self._content_digests((bucket,))[bucket])
            self.integrity.tamper_rehash(bucket)

    # -------------------------------------------------------- attack hooks

    def tamper_payload(self, bucket: int, slot: int, flip_byte: int = 0) -> None:
        """Flip the memory byte ``flip_byte`` past the slot's address
        (for tamper tests; the offsets are not held to the slot). Only
        the bucket's physical slots are its own: a rented column lives
        in its host bucket, so resolve it there first."""
        if not 0 <= bucket < self.cfg.n_buckets:
            raise ValueError(f"bucket {bucket} out of range")
        z = self.cfg.geometry[tree_mod.level_of(bucket)].z_total
        if not 0 <= slot < z:
            raise IndexError(
                f"slot {slot} is not one of bucket {bucket}'s {z} slots"
            )
        self._memory[self._offsets[bucket] + slot * self.cfg.block_bytes
                     + flip_byte] ^= 0xFF

    def tamper_version(self, bucket: int, slot: int) -> None:
        """Roll a slot's version back (replay attempt)."""
        self._version[bucket, slot] = max(0, int(self._version[bucket, slot]) - 1)
