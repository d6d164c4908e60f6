"""Binary-tree addressing for ORAM trees.

Buckets are numbered in *level order*: the root is bucket ``0``, the
buckets of level ``l`` occupy ids ``[2**l - 1, 2**(l+1) - 1)``. A path is
identified by its leaf index ``x`` in ``[0, 2**(L-1))``; the bucket of
level ``l`` on that path sits at in-level position ``x >> (L - 1 - l)``.

The module also implements the reverse-lexicographic eviction order used
by Ring ORAM's ``evictPath``: the g-th eviction targets the leaf whose
index is the bit-reversal of ``g mod 2**(L-1)``. This order maximizes
the spread between consecutive evictions and guarantees every path is
chosen exactly once per ``2**(L-1)`` evictions.
"""

from __future__ import annotations

from typing import List


def bucket_id(level: int, position: int) -> int:
    """Level-order id of the bucket at ``(level, position)``."""
    if level < 0:
        raise ValueError(f"negative level {level}")
    if not 0 <= position < (1 << level):
        raise ValueError(f"position {position} out of range for level {level}")
    return (1 << level) - 1 + position


def level_of(bucket: int) -> int:
    """Tree level of a level-order bucket id."""
    if bucket < 0:
        raise ValueError(f"negative bucket id {bucket}")
    return (bucket + 1).bit_length() - 1


def position_of(bucket: int) -> int:
    """In-level position of a level-order bucket id."""
    lv = level_of(bucket)
    return bucket - ((1 << lv) - 1)


def parent_of(bucket: int) -> int:
    """Parent bucket id (the root has no parent)."""
    if bucket <= 0:
        raise ValueError("the root has no parent")
    return (bucket - 1) >> 1


def path_buckets(leaf: int, levels: int) -> List[int]:
    """Bucket ids on the path of ``leaf``, root first (length ``levels``)."""
    if not 0 <= leaf < (1 << (levels - 1)):
        raise ValueError(f"leaf {leaf} out of range for {levels} levels")
    return [
        (1 << lv) - 1 + (leaf >> (levels - 1 - lv))
        for lv in range(levels)
    ]


def bucket_on_path(bucket: int, leaf: int, levels: int) -> bool:
    """True iff ``bucket`` lies on the path of ``leaf``."""
    lv = level_of(bucket)
    if lv >= levels:
        return False
    return position_of(bucket) == (leaf >> (levels - 1 - lv))


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def reverse_lexicographic_leaf(counter: int, levels: int) -> int:
    """Leaf targeted by the ``counter``-th evictPath.

    Ring ORAM picks eviction paths in reverse-lexicographic order of the
    leaf bits; consecutive evictions therefore alternate tree halves and
    every window of ``2**(L-1)`` evictions covers every path once.
    """
    bits = levels - 1
    if bits == 0:
        return 0
    return bit_reverse(counter % (1 << bits), bits)


