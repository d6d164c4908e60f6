"""Per-block authentication tags.

Each sealed block carries a MAC binding its ciphertext to its physical
slot address and write version, so the memory cannot substitute one
ciphertext for another (spatial splicing) or an old one for a new one
(the Merkle tree in :mod:`repro.crypto.integrity` then protects the
versions themselves). The MAC is keyed BLAKE2b (RFC 7693, from
``hashlib``) with an 8-byte digest, matching the tag budgets hardware
integrity engines use.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

_NONCE = struct.Struct("<QQ")


def pack_nonce(addr: int, version: int) -> bytes:
    """The ``<QQ`` (slot address, write version) word that both the
    keystream and the tag bind; ``ValueError`` unless both are unsigned
    64-bit integers."""
    try:
        return _NONCE.pack(addr, version)
    except struct.error:
        raise ValueError("addr and version must be unsigned 64-bit integers") from None


class AuthenticationError(Exception):
    """A block failed MAC verification (tampered or replayed)."""


class BlockAuthenticator:
    """Keyed MAC over (slot address, version, ciphertext)."""

    TAG_BYTES = 8

    def __init__(self, key: bytes) -> None:
        if not 16 <= len(key) <= 64:
            raise ValueError("authentication key must be 16 to 64 bytes")
        self._key = key
        # The keyed state (key block absorbed) is built once and copied
        # per tag.
        self._keyed = hashlib.blake2b(key=key, digest_size=self.TAG_BYTES)

    # hashlib states do not pickle; checkpoints carry the key alone.
    def __getstate__(self) -> dict:
        return {"_key": self._key}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["_key"])

    def tag(self, addr: int, version: int, ciphertext: bytes) -> bytes:
        """Compute the tag for one sealed block."""
        mac = self._keyed.copy()
        mac.update(pack_nonce(addr, version) + ciphertext)
        return mac.digest()

    def verify(self, addr: int, version: int, ciphertext: bytes,
               tag: bytes) -> None:
        """Raise :class:`AuthenticationError` unless the tag matches."""
        expect = self.tag(addr, version, ciphertext)
        if not hmac.compare_digest(expect, tag):
            raise AuthenticationError(
                f"MAC mismatch at addr {addr:#x} version {version}"
            )
