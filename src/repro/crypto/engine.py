"""The per-block seal/open engine.

``seal_many`` turns 64B plaintext blocks into (ciphertext, tag) pairs,
one per physical slot; ``open_many`` reverses and authenticates them.
The nonce is the slot address and a per-write version counter, so the
same plaintext written twice (or to two places) produces unrelated
ciphertexts -- the property that makes real and dummy blocks
indistinguishable on the memory bus, which Ring ORAM's security
argument relies on. A batch is a whole evictPath, or one readPath's
opens.

Each block's ``<QQ`` (address, version) nonce is packed once and feeds
both halves of the seal:

- the cipher is a PRF keystream: the block is XORed with keyed BLAKE2b
  (RFC 7693, from ``hashlib``) of the nonce, whose 64-byte digest is
  exactly one block of pad, so a pad never repeats while versions grow;
- the tag (:mod:`repro.crypto.auth`) is an 8-byte keyed BLAKE2b of the
  nonce followed by the ciphertext.

Key separation: independent subkeys for encryption and authentication
are derived from the master key with SHA256 domain tags. Each keyed
state (key block absorbed) is built once and copied per block.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import List, Sequence, Tuple, Union

from repro.crypto.auth import TAG_BYTES, AuthenticationError

_NONCE = struct.Struct("<QQ")
_NONCE_RANGE = "addr and version must be unsigned 64-bit integers"


class SecureBlockEngine:
    """Seals/opens fixed-size blocks keyed by (slot address, version)."""

    BLOCK_BYTES = 64

    def __init__(self, master_key: bytes) -> None:
        if len(master_key) < 16:
            raise ValueError("master key must be >= 16 bytes")
        self._enc_key = hashlib.sha256(b"repro/enc|" + master_key).digest()
        self._mac_key = hashlib.sha256(b"repro/mac|" + master_key).digest()
        self._init_keyed()

    def _init_keyed(self) -> None:
        self._pad = hashlib.blake2b(
            key=self._enc_key, digest_size=self.BLOCK_BYTES
        )
        self._mac = hashlib.blake2b(key=self._mac_key, digest_size=TAG_BYTES)

    # hashlib states do not pickle; checkpoints carry the keys alone.
    def __getstate__(self) -> dict:
        return {"_enc_key": self._enc_key, "_mac_key": self._mac_key}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_keyed()

    @property
    def tag_bytes(self) -> int:
        return TAG_BYTES

    def seal_many(
        self, items: Sequence[Tuple[int, int, bytes]]
    ) -> List[Tuple[bytes, bytes]]:
        """Seal a batch of ``(addr, version, plaintext)`` blocks.

        Returns one ``(ciphertext, tag)`` per item, in order: each
        block XORed with its pad, then tagged. ``ValueError`` for a
        block that is not 64 bytes or a nonce half outside 0..2**64-1.
        """
        bb = self.BLOCK_BYTES
        pack, pad_state, mac_state = _NONCE.pack, self._pad, self._mac
        sealed = []
        try:
            for addr, version, plaintext in items:
                if len(plaintext) != bb:
                    raise ValueError(
                        f"blocks must be {bb} bytes, got {len(plaintext)}"
                    )
                nonce = pack(addr, version)
                pad = pad_state.copy()
                pad.update(nonce)
                ciphertext = (
                    int.from_bytes(plaintext, "little")
                    ^ int.from_bytes(pad.digest(), "little")
                ).to_bytes(bb, "little")
                mac = mac_state.copy()
                mac.update(nonce)
                mac.update(ciphertext)
                sealed.append((ciphertext, mac.digest()))
        except struct.error:
            raise ValueError(_NONCE_RANGE) from None
        return sealed

    def open_many(
        self, items: Sequence[Tuple[int, int, bytes, bytes]]
    ) -> List[Union[bytes, AuthenticationError]]:
        """Open a batch of ``(addr, version, ciphertext, tag)`` blocks.

        Returns, per item and in order, the plaintext or the
        :class:`AuthenticationError` its MAC check raised. Every MAC of
        the batch is checked before anything is decrypted, and only
        authenticated items are: a failing item neither stops the
        checks on the rest nor gets a plaintext. A ciphertext that is
        not 64 bytes or a nonce out of range is a caller error, a
        ``ValueError``, not a MAC failure.
        """
        bb = self.BLOCK_BYTES
        pack, pad_state, mac_state = _NONCE.pack, self._pad, self._mac
        compare = hmac.compare_digest
        # Per item, its nonce once its tag has verified, else None.
        verified: list = []
        try:
            for addr, version, ciphertext, tag in items:
                if len(ciphertext) != bb:
                    raise ValueError(
                        f"ciphertext must be {bb} bytes, "
                        f"got {len(ciphertext)}"
                    )
                nonce = pack(addr, version)
                mac = mac_state.copy()
                mac.update(nonce)
                mac.update(ciphertext)
                verified.append(nonce if compare(mac.digest(), tag) else None)
        except struct.error:
            raise ValueError(_NONCE_RANGE) from None
        outcomes: list = []
        for (addr, version, ciphertext, _), nonce in zip(items, verified):
            if nonce is None:
                outcomes.append(AuthenticationError(
                    f"MAC mismatch at addr {addr:#x} version {version}"
                ))
                continue
            pad = pad_state.copy()
            pad.update(nonce)
            outcomes.append((
                int.from_bytes(ciphertext, "little")
                ^ int.from_bytes(pad.digest(), "little")
            ).to_bytes(bb, "little"))
        return outcomes
