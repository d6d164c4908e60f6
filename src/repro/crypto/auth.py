"""Per-block authentication tags.

Each sealed block carries a MAC binding its ciphertext to its physical
slot address and write version, so the memory cannot substitute one
ciphertext for another (spatial splicing) or an old one for a new one
(the Merkle tree in :mod:`repro.crypto.integrity` then protects the
versions themselves). The MAC is keyed BLAKE2b (RFC 7693, from
``hashlib``) with an :data:`TAG_BYTES`-byte digest, matching the tag
budgets hardware integrity engines use, over the block's ``<QQ``
(address, version) nonce followed by its ciphertext.
:class:`~repro.crypto.engine.SecureBlockEngine` computes and checks it
in the same pass that pads the block, from the same packed nonce.
"""

from __future__ import annotations

#: Bytes of one block's tag.
TAG_BYTES = 8


class AuthenticationError(Exception):
    """A block failed MAC verification (tampered or replayed)."""
