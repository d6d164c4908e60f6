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

    def _children(self, bucket: int) -> Tuple[int, int]:
        left, right = tree_mod.children_of(bucket)
        if left >= self.n_buckets:
            return -1, -1
        return left, right

    def _combine(self, bucket: int) -> bytes:
        left, right = self._children(bucket)
        h = hashlib.sha256()
        h.update(self._content[bucket])
        h.update(self._digest[left] if left >= 0 else _EMPTY)
        h.update(self._digest[right] if right >= 0 else _EMPTY)
        return h.digest()

    # -------------------------------------------------------------- update

    def update_bucket(self, bucket: int, content_digest: bytes) -> None:
        """Set a bucket's content digest and rehash its path to the root."""
        if not 0 <= bucket < self.n_buckets:
            raise ValueError(f"bucket {bucket} out of range")
        if len(content_digest) != self.DIGEST_BYTES:
            raise ValueError("content digest must be 32 bytes")
        self._content[bucket] = content_digest
        b = bucket
        while True:
            self._digest[b] = self._combine(b)
            if b == 0:
                break
            b = tree_mod.parent_of(b)
        self._root_onchip = self._digest[0]
        self.updates += 1

    def update_buckets(self, contents: Dict[int, bytes], updates: int) -> None:
        """Set several buckets' content digests, rehashing once.

        Equivalent to ``updates`` calls of :meth:`update_bucket` whose
        last call per bucket carried ``contents[bucket]`` (a batch that
        seals a bucket's slots one after another only needs the final
        digest): the stored digests depend on the final contents alone,
        so every affected node is recombined once, children first.
        """
        dirty = set()
        for bucket, content_digest in contents.items():
            if not 0 <= bucket < self.n_buckets:
                raise ValueError(f"bucket {bucket} out of range")
            if len(content_digest) != self.DIGEST_BYTES:
                raise ValueError("content digest must be 32 bytes")
            self._content[bucket] = content_digest
            b = bucket
            while b not in dirty:
                dirty.add(b)
                if b == 0:
                    break
                b = tree_mod.parent_of(b)
        # Level order numbers children above their parent.
        for b in sorted(dirty, reverse=True):
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

    def verify_bucket(
        self,
        bucket: int,
        content_digest: Optional[bytes] = None,
        opens: int = 1,
    ) -> None:
        """Check one bucket's digest (and its ancestors) to the root.

        When ``content_digest`` is given, it is the verifier's own
        recomputation of the bucket's content (from the untrusted tags
        and versions it just fetched); a mismatch against the stored
        content digest catches dropped writes the hash chain alone
        would miss. ``opens`` is how many slot opens of one batch this
        check stands for (``verifications`` counts per open).
        """
        if not 0 <= bucket < self.n_buckets:
            raise ValueError(f"bucket {bucket} out of range")
        self.verifications += opens
        if content_digest is not None and content_digest != self._content[bucket]:
            raise IntegrityError(
                f"content digest mismatch at bucket {bucket}", bucket=bucket
            )
        b = bucket
        while True:
            if self._digest[b] != self._combine(b):
                raise IntegrityError(f"digest mismatch at bucket {b}", bucket=b)
            if b == 0:
                break
            b = tree_mod.parent_of(b)
        if self._digest[0] != self._root_onchip:
            raise IntegrityError("root digest does not match on-chip copy")

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
        b = bucket
        while True:
            self._digest[b] = self._combine(b)
            if b == 0:
                break
            b = tree_mod.parent_of(b)

    @property
    def root(self) -> bytes:
        return self._root_onchip
