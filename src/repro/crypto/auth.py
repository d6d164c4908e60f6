"""Per-block authentication tags.

Each sealed block carries a MAC binding its ciphertext to its physical
slot address and write version, so the memory cannot substitute one
ciphertext for another (spatial splicing) or an old one for a new one
(the Merkle tree in :mod:`repro.crypto.integrity` then protects the
versions themselves). HMAC-SHA256 comes from the standard library; the
tag is truncated to 8 bytes, matching the budgets hardware integrity
engines use.
"""

from __future__ import annotations

import hashlib
import hmac
import struct


class AuthenticationError(Exception):
    """A block failed MAC verification (tampered or replayed)."""


class BlockAuthenticator:
    """Keyed MAC over (slot address, version, ciphertext)."""

    TAG_BYTES = 8

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("authentication key must be >= 16 bytes")
        self._key = key
        # The keyed state (both HMAC pads absorbed) is built once and
        # copied per tag.
        self._keyed = hmac.new(key, digestmod=hashlib.sha256)

    # hashlib states do not pickle; checkpoints carry the key alone.
    def __getstate__(self) -> dict:
        return {"_key": self._key}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["_key"])

    def tag(self, addr: int, version: int, ciphertext: bytes) -> bytes:
        """Compute the truncated tag for one sealed block."""
        if addr < 0 or version < 0:
            raise ValueError("addr and version must be non-negative")
        mac = self._keyed.copy()
        mac.update(struct.pack("<QQ", addr, version) + ciphertext)
        return mac.digest()[: self.TAG_BYTES]

    def verify(self, addr: int, version: int, ciphertext: bytes,
               tag: bytes) -> None:
        """Raise :class:`AuthenticationError` unless the tag matches."""
        expect = self.tag(addr, version, ciphertext)
        if not hmac.compare_digest(expect, tag):
            raise AuthenticationError(
                f"MAC mismatch at addr {addr:#x} version {version}"
            )
