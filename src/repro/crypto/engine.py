"""The per-block seal/open engine.

``seal`` turns a 64B plaintext block into (ciphertext, tag) for one
physical slot; ``open`` reverses and authenticates it. The nonce is
the slot address and a per-write version counter, so the same
plaintext written twice (or to two places) produces unrelated
ciphertexts -- the property that makes real and dummy blocks
indistinguishable on the memory bus, which Ring ORAM's security
argument relies on. ``seal_many``/``open_many`` do the same for a
batch of slots (a whole evictPath); ``seal``/``open`` are the batch
of one.

The cipher is a PRF keystream: a block is XORed with keyed BLAKE2b
(RFC 7693, from ``hashlib``) of its nonce, whose 64-byte digest is
exactly one block of pad. The nonce is the full ``(address, version)``
pair the MAC binds, so a pad never repeats while versions grow.

Key separation: independent subkeys for encryption and authentication
are derived from the master key with SHA256 domain tags.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Sequence, Tuple, Union

from repro.crypto.auth import AuthenticationError, BlockAuthenticator

_NONCE = struct.Struct("<QQ")


class SecureBlockEngine:
    """Seals/opens fixed-size blocks keyed by (slot address, version)."""

    BLOCK_BYTES = 64

    def __init__(self, master_key: bytes) -> None:
        if len(master_key) < 16:
            raise ValueError("master key must be >= 16 bytes")
        self._enc_key = hashlib.sha256(b"repro/enc|" + master_key).digest()
        self._auth = BlockAuthenticator(
            hashlib.sha256(b"repro/mac|" + master_key).digest()
        )
        self._init_keyed()

    def _init_keyed(self) -> None:
        # The keyed state (key block absorbed) is built once and copied
        # per block.
        self._keyed = hashlib.blake2b(
            key=self._enc_key, digest_size=self.BLOCK_BYTES
        )

    # hashlib states do not pickle; checkpoints carry the keys alone.
    def __getstate__(self) -> dict:
        return {"_enc_key": self._enc_key, "_auth": self._auth}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_keyed()

    @property
    def tag_bytes(self) -> int:
        return self._auth.TAG_BYTES

    def keystream(self, addr: int, version: int) -> bytes:
        """The 64-byte pad of slot ``addr`` at write ``version``."""
        try:
            nonce = _NONCE.pack(addr, version)
        except struct.error:
            raise ValueError(
                "addr and version must be unsigned 64-bit integers"
            ) from None
        pad = self._keyed.copy()
        pad.update(nonce)
        return pad.digest()

    def _xor(self, addr: int, version: int, block: bytes) -> bytes:
        if len(block) != self.BLOCK_BYTES:
            raise ValueError(
                f"blocks must be {self.BLOCK_BYTES} bytes, got {len(block)}"
            )
        return (
            int.from_bytes(block, "little")
            ^ int.from_bytes(self.keystream(addr, version), "little")
        ).to_bytes(self.BLOCK_BYTES, "little")

    def seal(self, addr: int, version: int, plaintext: bytes) -> Tuple[bytes, bytes]:
        """Encrypt + authenticate one block; returns (ciphertext, tag)."""
        return self.seal_many([(addr, version, plaintext)])[0]

    def open(self, addr: int, version: int, ciphertext: bytes,
             tag: bytes) -> bytes:
        """Authenticate + decrypt one block (raises on tampering)."""
        outcome = self.open_many([(addr, version, ciphertext, tag)])[0]
        if isinstance(outcome, AuthenticationError):
            raise outcome
        return outcome

    def seal_many(
        self, items: Sequence[Tuple[int, int, bytes]]
    ) -> List[Tuple[bytes, bytes]]:
        """Seal a batch of ``(addr, version, plaintext)`` blocks.

        Returns one ``(ciphertext, tag)`` per item, in order -- the
        same bytes ``seal`` gives item by item.
        """
        xor, tag = self._xor, self._auth.tag
        sealed = []
        for addr, version, plaintext in items:
            ciphertext = xor(addr, version, plaintext)
            sealed.append((ciphertext, tag(addr, version, ciphertext)))
        return sealed

    def open_many(
        self, items: Sequence[Tuple[int, int, bytes, bytes]]
    ) -> List[Union[bytes, AuthenticationError]]:
        """Open a batch of ``(addr, version, ciphertext, tag)`` blocks.

        Returns, per item and in order, the plaintext or the
        :class:`AuthenticationError` its MAC check raised. Every MAC of
        the batch is checked before anything is decrypted, and only
        authenticated items are: a failing item neither stops the
        checks on the rest nor gets a plaintext.
        """
        outcomes: list = []
        for addr, version, ciphertext, tag in items:
            # Checked before the MAC: a short ciphertext is a caller
            # error, not a MAC failure.
            if len(ciphertext) != self.BLOCK_BYTES:
                raise ValueError(
                    f"ciphertext must be {self.BLOCK_BYTES} bytes, "
                    f"got {len(ciphertext)}"
                )
            try:
                self._auth.verify(addr, version, ciphertext, tag)
            except AuthenticationError as exc:
                outcomes.append(exc)
            else:
                outcomes.append(None)
        for i, exc in enumerate(outcomes):
            if exc is None:
                outcomes[i] = self._xor(*items[i][:3])
        return outcomes
