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
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.crypto.auth import AuthenticationError
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError
from repro.mem.layout import TreeLayout
from repro.oram import tree as tree_mod
from repro.oram.config import OramConfig


@dataclass(frozen=True)
class SlotSnapshot:
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
    """Sealed byte image of the ORAM data tree."""

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
        self.layout = TreeLayout(cfg)
        self.engine = SecureBlockEngine(master_key)
        self._memory = bytearray(self.layout.data_bytes)
        self._version = np.zeros((cfg.n_buckets, cfg.z_max), dtype=np.uint32)
        # Tags in one flat table, slot (b, s) at (b * z_max + s) *
        # tag_bytes, so a bucket's tags are one slice. A never-sealed
        # slot's tag is zero bytes (what the content digest has always
        # hashed in its place); the mask tells it from a sealed one.
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

    # ------------------------------------------------------------- sealing

    def is_sealed(self, bucket: int, slot: int) -> bool:
        """Whether the slot has ever been sealed (and so can be opened)."""
        return bool(self._sealed[bucket * self._z_max + slot])

    def _tag(self, bucket: int, slot: int) -> bytes:
        """The slot's MAC tag; ``KeyError`` for a slot never sealed."""
        i = bucket * self._z_max + slot
        if not self._sealed[i]:
            raise KeyError(f"slot {(bucket, slot)} was never sealed")
        return bytes(self._tags[i * self._tag_bytes:(i + 1) * self._tag_bytes])

    def _set_tag(self, bucket: int, slot: int, tag: bytes) -> None:
        i = bucket * self._z_max + slot
        self._tags[i * self._tag_bytes:(i + 1) * self._tag_bytes] = tag
        self._sealed[i] = 1

    def seal_slot(self, bucket: int, slot: int, plaintext: bytes) -> None:
        """Encrypt + authenticate one slot and update the Merkle path."""
        plaintext = pad_block(plaintext, self.cfg.block_bytes)
        addr = self.layout.data_addr(bucket, slot)
        version = int(self._version[bucket, slot]) + 1
        self._version[bucket, slot] = version
        ciphertext, tag = self.engine.seal(addr, version, plaintext)
        self._memory[addr:addr + self.cfg.block_bytes] = ciphertext
        self._set_tag(bucket, slot, tag)
        self._sealed_buckets.add(bucket)
        if self.integrity is not None:
            self.integrity.update_bucket(bucket, self._content_digest(bucket))
        self.seals += 1

    def _dummy_plaintext(self) -> bytes:
        """Fresh random filler for a dummy seal (dummies must look like
        data). Split out so wrappers can route dummy seals through their
        own ``seal_slot`` without perturbing the RNG stream."""
        return self._rng.integers(0, 256, self.cfg.block_bytes,
                                  dtype=np.uint8).tobytes()

    def seal_dummy(self, bucket: int, slot: int) -> None:
        """Seal fresh random bytes into a dummy slot."""
        self.seal_slot(bucket, slot, self._dummy_plaintext())

    def seal_many(
        self, items: Sequence[Tuple[int, int, Optional[bytes]]]
    ) -> None:
        """Seal a batch of slots in order; ``None`` payload means dummy.

        A whole evictPath's (or one reshuffle's) write-back in one
        call. The end state -- memory, tags, versions, Merkle root,
        dummy-filler RNG stream, ``seals`` and ``integrity.updates`` --
        is what ``seal_slot``/``seal_dummy`` item by item would leave;
        fault campaigns and integrity counters pin that. What the batch
        shares is the Merkle work: one content digest and one rehash
        per distinct bucket instead of one per slot.
        """
        if not items:
            return
        bb = self.cfg.block_bytes
        data_addr = self.layout.data_addr
        version = self._version
        # Reject a bad payload before any version or RNG state moves.
        padded = [
            None if plaintext is None else pad_block(plaintext, bb)
            for _, _, plaintext in items
        ]
        requests = []
        for (bucket, slot, _), plaintext in zip(items, padded):
            if plaintext is None:
                plaintext = self._dummy_plaintext()
            # A slot repeated inside the batch gets a fresh version
            # each time, exactly as back-to-back seal_slot calls would.
            v = int(version[bucket, slot]) + 1
            version[bucket, slot] = v
            requests.append((data_addr(bucket, slot), v, plaintext))
        for (bucket, slot, _), (addr, _, _), (ciphertext, tag) in zip(
            items, requests, self.engine.seal_many(requests)
        ):
            self._memory[addr:addr + bb] = ciphertext
            self._set_tag(bucket, slot, tag)
        buckets = {bucket for bucket, _, _ in items}
        self._sealed_buckets |= buckets
        if self.integrity is not None:
            self.integrity.update_buckets(
                {b: self._content_digest(b) for b in buckets},
                updates=len(items),
            )
        self.seals += len(items)

    # ------------------------------------------------------------- opening

    def open_slot(self, bucket: int, slot: int) -> bytes:
        """Verify (MAC + Merkle) and decrypt one slot."""
        tag = self._tag(bucket, slot)
        if self.integrity is not None:
            # Recomputing the content digest from the (untrusted) tags
            # and versions just fetched catches dropped writes whose
            # stale tag still hangs off a consistent hash chain.
            self.integrity.verify_bucket(
                bucket, content_digest=self._content_digest(bucket)
            )
        addr = self.layout.data_addr(bucket, slot)
        ciphertext = bytes(self._memory[addr:addr + self.cfg.block_bytes])
        version = int(self._version[bucket, slot])
        self.opens += 1
        return self.engine.open(addr, version, ciphertext, tag)

    def open_many(
        self, slots: Sequence[Tuple[int, int]]
    ) -> List[Union[bytes, AuthenticationError, IntegrityError]]:
        """Verify and decrypt a batch of ``(bucket, slot)``, in order.

        Per slot, the plaintext -- or, in its place, the
        :class:`IntegrityError` / :class:`AuthenticationError` that
        ``open_slot`` would have raised, so one bad slot costs the
        caller that slot only. Each bucket's Merkle check runs once for
        all of its slots in the batch (nothing changes in between);
        every MAC is checked before any plaintext of the batch exists
        (:meth:`SecureBlockEngine.open_many`). Counters land as the
        scalar calls would leave them.
        """
        if not slots:
            return []
        tags = [self._tag(bucket, slot) for bucket, slot in slots]
        bb = self.cfg.block_bytes
        broken: Dict[int, IntegrityError] = {}
        if self.integrity is not None:
            for bucket, n in Counter(b for b, _ in slots).items():
                try:
                    self.integrity.verify_bucket(
                        bucket,
                        content_digest=self._content_digest(bucket),
                        opens=n,
                    )
                except IntegrityError as exc:
                    broken[bucket] = exc
        outcomes: list = [broken.get(bucket) for bucket, _ in slots]
        intact = [i for i, exc in enumerate(outcomes) if exc is None]
        requests = []
        for i in intact:
            bucket, slot = slots[i]
            addr = self.layout.data_addr(bucket, slot)
            requests.append((
                addr,
                int(self._version[bucket, slot]),
                bytes(self._memory[addr:addr + bb]),
                tags[i],
            ))
        self.opens += len(intact)
        for i, outcome in zip(intact, self.engine.open_many(requests)):
            outcomes[i] = outcome
        return outcomes

    # ----------------------------------------------------------- integrity

    def _content_digest(self, bucket: int) -> bytes:
        """Digest of a bucket's tags + versions (Merkle leaf content)."""
        z = self._z_by_level[(bucket + 1).bit_length() - 1]
        at = bucket * self._z_max * self._tag_bytes
        return hashlib.sha256(
            self._version[bucket, :z].tobytes()
            + self._tags[at:at + z * self._tag_bytes]
        ).digest()

    def verify_path(self, leaf: int) -> None:
        """Verify one path's buckets end to end (readPath prefetch check).

        For every sealed bucket on the path, the content digest is
        recomputed from the tags/versions currently in memory and
        checked against the Merkle tree's stored copy, then the whole
        hash chain is checked against the on-chip root. Never-sealed
        buckets only participate in the chain check (their stored
        content is the initialization sentinel).
        """
        if self.integrity is None:
            return
        for b in tree_mod.path_buckets(leaf, self.cfg.levels):
            if b in self._sealed_buckets:
                stored = self.integrity.stored_content(b)
                if stored != self._content_digest(b):
                    raise IntegrityError(
                        f"content digest mismatch at bucket {b}", bucket=b
                    )
        self.integrity.verify_path(leaf)

    # ---------------------------------------------------- snapshot/restore

    def snapshot_slot(self, bucket: int, slot: int) -> SlotSnapshot:
        """Capture a slot's off-chip state (what an adversary could keep)."""
        return SlotSnapshot(
            ciphertext=self.raw_ciphertext(bucket, slot),
            tag=self._tag(bucket, slot),
            version=int(self._version[bucket, slot]),
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
        off = self.layout.data_addr(bucket, slot)
        self._memory[off:off + self.cfg.block_bytes] = snap.ciphertext
        self._set_tag(bucket, slot, snap.tag)
        if restore_version:
            self._version[bucket, slot] = snap.version
        if rehash and self.integrity is not None:
            self.integrity.tamper_content(bucket, self._content_digest(bucket))
            self.integrity.tamper_rehash(bucket)

    # -------------------------------------------------------- attack hooks

    def tamper_payload(self, bucket: int, slot: int, flip_byte: int = 0) -> None:
        """Flip one ciphertext byte in memory (for tamper tests)."""
        off = self.layout.data_addr(bucket, slot) + flip_byte
        self._memory[off] ^= 0xFF

    def tamper_version(self, bucket: int, slot: int) -> None:
        """Roll a slot's version back (replay attempt)."""
        self._version[bucket, slot] = max(0, int(self._version[bucket, slot]) - 1)

    def raw_ciphertext(self, bucket: int, slot: int) -> bytes:
        off = self.layout.data_addr(bucket, slot)
        return bytes(self._memory[off:off + self.cfg.block_bytes])
