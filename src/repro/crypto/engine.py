"""The per-block seal/open engine.

``seal`` turns a 64B plaintext block into (ciphertext, tag) for one
physical slot; ``open`` reverses and authenticates it. The nonce is
derived from the slot address and a per-write version counter, so the
same plaintext written twice (or to two places) produces unrelated
ciphertexts -- the property that makes real and dummy blocks
indistinguishable on the memory bus, which Ring ORAM's security
argument relies on. ``seal_many``/``open_many`` do the same for a
batch of slots (a whole evictPath) over one keystream computation;
``seal``/``open`` are the batch of one.

Key separation: independent subkeys for encryption and authentication
are derived from the master key with SHA256 domain tags.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Sequence, Tuple, Union

from repro.crypto.auth import AuthenticationError, BlockAuthenticator
from repro.crypto.chacha import xor_blocks


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

    @property
    def tag_bytes(self) -> int:
        return self._auth.TAG_BYTES

    def _nonce(self, addr: int, version: int) -> bytes:
        # 12-byte nonce: low 8 bytes of address + low 4 of version; the
        # version also feeds the MAC, so wrap-around cannot alias.
        return struct.pack("<QI", addr & (2**64 - 1), version & (2**32 - 1))

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
        same bytes ``seal`` gives item by item; the batch shares one
        keystream computation.
        """
        ciphertexts = xor_blocks(
            self._enc_key,
            [self._nonce(addr, version) for addr, version, _ in items],
            [plaintext for _, _, plaintext in items],
        )
        tag = self._auth.tag
        return [
            (ciphertext, tag(addr, version, ciphertext))
            for (addr, version, _), ciphertext in zip(items, ciphertexts)
        ]

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
            # Checked here, not left to xor_blocks: a short ciphertext
            # is a caller error, not a MAC failure.
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
        authentic = [i for i, exc in enumerate(outcomes) if exc is None]
        plaintexts = xor_blocks(
            self._enc_key,
            [self._nonce(*items[i][:2]) for i in authentic],
            [items[i][2] for i in authentic],
        )
        for i, plaintext in zip(authentic, plaintexts):
            outcomes[i] = plaintext
        return outcomes
