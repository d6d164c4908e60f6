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

#: The one hash of the tree: every walk looks it up once per call.
_sha256 = hashlib.sha256
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
        self.n_buckets = n = (1 << levels) - 1
        self._content: List[bytes] = [_EMPTY] * n
        # Digests of the buckets, then n + 1 empty ones standing in for
        # the leaves' children, so every combine reads two children.
        self._digest: List[bytes] = [_EMPTY] * (2 * n + 1)
        # Initialize bottom-up so an untouched tree verifies.
        for b in range(n - 1, -1, -1):
            self._digest[b] = self._combine(b)
        self._root_onchip = self._digest[0]
        self.updates = 0
        self.verifications = 0

    def _combine(self, bucket: int) -> bytes:
        """``bucket``'s digest (the walks below inline the same line)."""
        digest = self._digest
        return _sha256(self._content[bucket] + digest[2 * bucket + 1]
                       + digest[2 * bucket + 2]).digest()

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
                b = (b - 1) >> 1
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
        content, digest, sha = self._content, self._digest, _sha256
        for bucket, content_digest in contents.items():
            if len(content_digest) != self.DIGEST_BYTES:
                raise ValueError("content digest must be 32 bytes")
            content[bucket] = content_digest
        # Level order numbers children above their parent.
        for b in sorted(chain, reverse=True):
            digest[b] = sha(content[b] + digest[2 * b + 1]
                            + digest[2 * b + 2]).digest()
        self._root_onchip = digest[0]
        self.updates += updates

    # -------------------------------------------------------------- verify

    def verify_path(
        self, leaf: int, contents: Optional[Dict[int, bytes]] = None
    ) -> None:
        """Check one path's hash chain against the on-chip root, after
        ``contents``, the caller's recomputed content digests of path
        buckets (root side first; a mismatch raises before the chain is
        walked and counts no verification)."""
        path = tree_mod.path_buckets(leaf, self.levels)
        content, digest, sha = self._content, self._digest, _sha256
        for b in path if contents else ():
            if b in contents and contents[b] != content[b]:
                raise IntegrityError(
                    f"content digest mismatch at bucket {b}", bucket=b)
        self.verifications += 1
        for b in path:
            if digest[b] != sha(content[b] + digest[2 * b + 1]
                                + digest[2 * b + 2]).digest():
                raise IntegrityError(f"digest mismatch at bucket {b}", bucket=b)
        if digest[0] != self._root_onchip:
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
        is recombined once, root first. ``verifications`` counts
        ``opens`` per bucket, the slot opens of one batch the check
        stands for.
        """
        content, digest, sha = self._content, self._digest, _sha256
        # lowest[b]: the lowest mismatching node on b's chain, or None.
        lowest: Dict[int, Optional[int]] = {}
        for b in sorted(self._chains(checks)):
            if digest[b] != sha(content[b] + digest[2 * b + 1]
                                + digest[2 * b + 2]).digest():
                lowest[b] = b
            else:
                lowest[b] = lowest[(b - 1) >> 1] if b else None
        root_ok = digest[0] == self._root_onchip
        failed: Dict[int, IntegrityError] = {}
        for bucket, (content_digest, opens) in checks.items():
            self.verifications += opens
            if content_digest is not None and content_digest != content[bucket]:
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

    def tamper_content(self, bucket: int, content_digest: bytes) -> None:
        """Overwrite a content digest WITHOUT rehashing (attack model)."""
        self._content[bucket] = content_digest

    def tamper_digest(self, bucket: int, digest: bytes) -> None:
        """Overwrite a stored digest WITHOUT fixing ancestors (attack)."""
        if not 0 <= bucket < self.n_buckets:    # past them: the leaves' children
            raise IndexError(f"bucket {bucket} out of range")
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
