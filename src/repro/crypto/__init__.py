"""The secure-processor crypto boundary.

The paper's threat model (section II) assumes program data lives in
memory as ciphertext, encrypted and integrity-protected by an on-chip
secure engine; only access *patterns* remain observable, which is what
the ORAM then hides. This package implements that boundary:

- :mod:`repro.crypto.chacha` -- the ChaCha20 stream cipher (RFC 8439),
  implemented from scratch -- the RFC's reference block plus a
  wide-integer kernel for short batches and a lane-parallel numpy
  kernel for long ones -- and validated against the RFC test vectors;
- :mod:`repro.crypto.auth` -- keyed block authentication (HMAC-SHA256
  tags with domain separation per slot address and version);
- :mod:`repro.crypto.engine` -- the seal/open engine combining both,
  per block or per batch, with version-based nonces;
- :mod:`repro.crypto.integrity` -- a Merkle tree over the ORAM tree's
  buckets providing freshness (anti-replay), with the root held
  on-chip.

The timing simulator does not route payload bytes (the paper's schemes
never change crypto cost), but the functional controller can: see
``EncryptedTreeStore`` in :mod:`repro.oram.datastore`.
"""

from repro.crypto.chacha import ChaCha20, chacha20_xor
from repro.crypto.auth import BlockAuthenticator, AuthenticationError
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError

__all__ = [
    "ChaCha20",
    "chacha20_xor",
    "BlockAuthenticator",
    "AuthenticationError",
    "SecureBlockEngine",
    "BucketMerkleTree",
    "IntegrityError",
]
