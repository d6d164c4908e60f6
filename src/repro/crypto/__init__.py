"""The secure-processor crypto boundary.

The paper's threat model (section II) assumes program data lives in
memory as ciphertext, encrypted and integrity-protected by an on-chip
secure engine; only access *patterns* remain observable, which is what
the ORAM then hides. This package implements that boundary:

- :mod:`repro.crypto.auth` -- the block tag (8-byte keyed BLAKE2b
  bound to the slot address and version) and its failure;
- :mod:`repro.crypto.engine` -- the seal/open engine: a keyed-BLAKE2b
  keystream (one 64-byte digest per block, nonce = slot address and
  write version) plus the tags above, per batch, each block's nonce
  packed once for both;
- :mod:`repro.crypto.integrity` -- a Merkle tree over the ORAM tree's
  buckets providing freshness (anti-replay), with the root held
  on-chip.

The timing simulator does not route payload bytes (the paper's schemes
never change crypto cost), but the functional controller can: see
``EncryptedTreeStore`` in :mod:`repro.oram.datastore`.
"""

from repro.crypto.auth import AuthenticationError
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError

__all__ = [
    "AuthenticationError",
    "SecureBlockEngine",
    "BucketMerkleTree",
    "IntegrityError",
]
