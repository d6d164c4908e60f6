"""Merkle integrity tree over the ORAM tree's buckets.

Per-block MACs stop splicing, but not *replay*: memory could return a
stale (ciphertext, tag, version) triple that once was valid. The
classic secure-processor fix -- and the one ORAM hardware proposals
adopt, since the ORAM tree shape conveniently matches -- is a Merkle
tree over the buckets:

    digest(b) = H(content_digest(b) || digest(left(b)) || digest(right(b)))

with the root digest pinned on-chip. ``content_digest`` covers the
bucket's slot tags and versions, so accepting any stale slot requires
forging a hash chain up to the root.

Updates and verification both touch only one root-to-leaf path, which
is exactly the set of buckets an ORAM operation touches anyway.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.oram import tree as tree_mod

_EMPTY = bytes(32)
_NO_CHILDREN = _EMPTY + _EMPTY


class IntegrityError(Exception):
    """A bucket digest or the root failed verification (replay?).

    ``bucket`` localizes the failure when possible: the bucket whose
    digest or content mismatched, or ``None`` when only the root
    comparison failed (the stale bucket cannot be identified -- the
    signature of a consistent-rehash replay).
    """

    def __init__(self, message: str, bucket: Optional[int] = None) -> None:
        super().__init__(message)
        self.bucket = bucket


class BucketMerkleTree:
    """Digest-per-bucket Merkle tree with an on-chip root copy."""

    DIGEST_BYTES = 32

    def __init__(self, levels: int) -> None:
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.levels = levels
        self.n_buckets = (1 << levels) - 1
        self._content: List[bytes] = [_EMPTY] * self.n_buckets
        self._digest: List[bytes] = [_EMPTY] * self.n_buckets
        # Initialize bottom-up so an untouched tree verifies.
        for b in range(self.n_buckets - 1, -1, -1):
            self._digest[b] = self._combine(b)
        self._root_onchip = self._digest[0]
        self.updates = 0
        self.verifications = 0

    def _combine(self, bucket: int) -> bytes:
        left = 2 * bucket + 1
        if left < self.n_buckets:
            children = self._digest[left] + self._digest[left + 1]
        else:
            children = _NO_CHILDREN
        return hashlib.sha256(self._content[bucket] + children).digest()

    def _chains(self, buckets) -> set:
        """The union of the buckets' paths to the root (each node once)."""
        chain = set()
        for bucket in buckets:
            if not 0 <= bucket < self.n_buckets:
                raise ValueError(f"bucket {bucket} out of range")
            b = bucket
            while b not in chain:
                chain.add(b)
                if b == 0:
                    break
                b = tree_mod.parent_of(b)
        return chain

    # -------------------------------------------------------------- update

    def update_buckets(self, contents: Dict[int, bytes], updates: int) -> None:
        """Set buckets' content digests and rehash their paths once.

        ``updates`` is how many slot seals the batch stands for. Sealing
        a bucket's slots one after another needs only the final digest:
        the stored digests depend on the final contents alone, so every
        affected node is recombined once, children first.
        """
        chain = self._chains(contents)
        for bucket, content_digest in contents.items():
            if len(content_digest) != self.DIGEST_BYTES:
                raise ValueError("content digest must be 32 bytes")
            self._content[bucket] = content_digest
        # Level order numbers children above their parent.
        for b in sorted(chain, reverse=True):
            self._digest[b] = self._combine(b)
        self._root_onchip = self._digest[0]
        self.updates += updates

    # -------------------------------------------------------------- verify

    def verify_path(self, leaf: int) -> None:
        """Check one path's hash chain against the on-chip root."""
        path = tree_mod.path_buckets(leaf, self.levels)
        self.verifications += 1
        for b in path:
            if self._digest[b] != self._combine(b):
                raise IntegrityError(f"digest mismatch at bucket {b}", bucket=b)
        if self._digest[0] != self._root_onchip:
            raise IntegrityError("root digest does not match on-chip copy")

    def verify_buckets(
        self, checks: Dict[int, Tuple[Optional[bytes], int]]
    ) -> Dict[int, IntegrityError]:
        """Check buckets to the root; returns the failing ones' errors.

        ``checks`` maps a bucket to ``(content_digest, opens)``. A given
        ``content_digest`` is the verifier's own recomputation of the
        bucket's content (from the untrusted tags and versions it just
        fetched): a mismatch against the stored one catches dropped
        writes the hash chain alone would miss. Then the lowest
        mismatching node of the bucket's chain, then the on-chip root.
        Nothing changes between the checks, so the union of the chains
        is recombined once. ``verifications`` counts ``opens`` per
        bucket, the slot opens of one batch the check stands for.
        """
        # lowest[b]: the lowest mismatching node on b's chain, or None.
        lowest: Dict[int, Optional[int]] = {}
        for b in sorted(self._chains(checks)):
            if self._digest[b] != self._combine(b):
                lowest[b] = b
            else:
                lowest[b] = lowest[tree_mod.parent_of(b)] if b else None
        root_ok = self._digest[0] == self._root_onchip
        failed: Dict[int, IntegrityError] = {}
        for bucket, (content_digest, opens) in checks.items():
            self.verifications += opens
            stored = self._content[bucket]
            if content_digest is not None and content_digest != stored:
                failed[bucket] = IntegrityError(
                    f"content digest mismatch at bucket {bucket}", bucket=bucket)
            elif lowest[bucket] is not None:
                failed[bucket] = IntegrityError(
                    f"digest mismatch at bucket {lowest[bucket]}",
                    bucket=lowest[bucket])
            elif not root_ok:
                failed[bucket] = IntegrityError(
                    "root digest does not match on-chip copy")
        return failed

    # --------------------------------------------------------- tamper hooks

    def stored_content(self, bucket: int) -> bytes:
        return self._content[bucket]

    def tamper_content(self, bucket: int, content_digest: bytes) -> None:
        """Overwrite a content digest WITHOUT rehashing (attack model)."""
        self._content[bucket] = content_digest

    def tamper_digest(self, bucket: int, digest: bytes) -> None:
        """Overwrite a stored digest WITHOUT fixing ancestors (attack)."""
        self._digest[bucket] = digest

    def tamper_rehash(self, bucket: int) -> None:
        """Recompute a path's digests consistently but WITHOUT updating
        the on-chip root copy -- the strongest replay attack an
        off-chip adversary can mount. Verification must still fail at
        the root comparison."""
        for b in sorted(self._chains([bucket]), reverse=True):
            self._digest[b] = self._combine(b)

    @property
    def root(self) -> bytes:
        return self._root_onchip
