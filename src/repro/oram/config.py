"""ORAM tree geometry and protocol configuration.

Terminology follows the paper (and Ren et al.'s Ring ORAM):

- ``L`` (``levels``): number of tree levels. Level ``0`` is the root,
  level ``L - 1`` holds the leaves. A path therefore touches ``L``
  buckets and there are ``2**(L - 1)`` leaves.
- ``Z'`` (``z_real``): slots per bucket that may hold *real* blocks.
- ``S`` (``s_reserved``): physically allocated reserved-dummy slots.
- ``Z`` (``z_total``): physical slots per bucket, ``Z = Z' + S``.
- ``Y`` (``overlap``): Bucket Compaction overlap -- after the ``S``
  reserved dummies are consumed, up to ``Y`` additional reads are served
  from the ``Z'`` portion ("green" blocks; a real green block moves to
  the stash).
- ``r`` (``remote_extension``): AB-ORAM's runtime S-extension, granted by
  borrowing ``r`` dead slots from the level's DeadQ at reshuffle time.
- ``A`` (``evict_rate``): an ``evictPath`` runs after every ``A`` online
  accesses.

The *sustain* count of a bucket -- how many ``readPath`` hits it absorbs
between reshuffles -- is ``S + Y + r`` (see DESIGN.md section 5), capped
by the number of slots actually refreshable at reshuffle time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The smallest tree: a root over two leaves.
MIN_LEVELS = 2


@dataclass(frozen=True)
class BucketGeometry:
    """Shape of the buckets at one tree level.

    ``z_real`` is Z', ``s_reserved`` is the physically allocated S,
    ``overlap`` is the CB overlap Y, and ``remote_extension`` is the
    AB-ORAM extension ``r`` requested from the DeadQ at every reshuffle.
    """

    z_real: int
    s_reserved: int
    overlap: int = 0
    remote_extension: int = 0

    def __post_init__(self) -> None:
        if self.z_real < 1:
            raise ValueError(f"z_real must be >= 1, got {self.z_real}")
        if self.s_reserved < 0:
            raise ValueError(f"s_reserved must be >= 0, got {self.s_reserved}")
        if self.overlap < 0:
            raise ValueError(f"overlap must be >= 0, got {self.overlap}")
        if self.remote_extension < 0:
            raise ValueError(
                f"remote_extension must be >= 0, got {self.remote_extension}"
            )
        if self.overlap > self.z_real:
            # Greens are served out of the Z' portion; more than Z' of
            # them cannot exist within one reshuffle round.
            raise ValueError(
                f"overlap Y={self.overlap} cannot exceed z_real Z'={self.z_real}"
            )

    @property
    def z_total(self) -> int:
        """Physical slots per bucket (Z = Z' + S)."""
        return self.z_real + self.s_reserved

    @property
    def sustain(self) -> int:
        """readPath hits absorbed between reshuffles when extension succeeds."""
        return self.s_reserved + self.overlap + self.remote_extension

    @property
    def sustain_unextended(self) -> int:
        """Sustain when the DeadQ cannot grant the extension."""
        return self.s_reserved + self.overlap

    def shrunk(self, by: int) -> "BucketGeometry":
        """Return a copy with ``S`` reduced by ``by`` (floored at 0)."""
        return BucketGeometry(
            z_real=self.z_real,
            s_reserved=max(0, self.s_reserved - by),
            overlap=self.overlap,
            remote_extension=self.remote_extension,
        )


@dataclass
class OramConfig:
    """Complete configuration of one ORAM instance.

    ``geometry`` holds one :class:`BucketGeometry` per level (root
    first). ``n_real_blocks`` defaults to the paper's sizing rule:
    user data fills ``utilization`` (50%) of the Z' capacity of all
    buckets, ``(2**L - 1) * Z' * utilization`` -- computed from
    ``base_z_real`` so that non-uniform variants protect the same
    amount of user data as their baseline.
    """

    levels: int
    geometry: Tuple[BucketGeometry, ...]
    evict_rate: int = 5
    block_bytes: int = 64
    stash_capacity: int = 300
    background_evict_threshold: Optional[int] = None
    treetop_levels: int = 0
    deadq_capacity: int = 1000
    deadq_levels: Tuple[int, ...] = ()
    utilization: float = 0.5
    base_z_real: Optional[int] = None
    n_real_blocks: Optional[int] = None
    max_remote_slots: int = 6  # R in Table I
    name: str = "oram"

    def __post_init__(self) -> None:
        if self.levels < MIN_LEVELS:
            raise ValueError(f"levels must be >= {MIN_LEVELS}, got {self.levels}")
        if len(self.geometry) != self.levels:
            raise ValueError(
                f"geometry must have one entry per level: "
                f"{len(self.geometry)} != {self.levels}"
            )
        if self.evict_rate < 1:
            raise ValueError(f"evict_rate must be >= 1, got {self.evict_rate}")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(
                f"utilization must be in (0, 1], got {self.utilization}"
            )
        if self.treetop_levels < 0 or self.treetop_levels >= self.levels:
            raise ValueError(
                f"treetop_levels must be in [0, levels), got {self.treetop_levels}"
            )
        if self.base_z_real is None:
            self.base_z_real = self.geometry[-1].z_real
        if self.n_real_blocks is None:
            # The paper's sizing rule: user data fills ``utilization``
            # (50%) of the Z' capacity of *all* buckets -- 2.5GB of an
            # 8GB tree at the typical setting, i.e. 31.25% utilization
            # for the CB baseline.
            self.n_real_blocks = int(
                self.n_buckets * self.base_z_real * self.utilization
            )
        if self.n_real_blocks < 1:
            raise ValueError("configuration protects zero blocks")
        if self.background_evict_threshold is None:
            # CB issues dummy accesses once the stash holds more than
            # ~2/3 of its capacity; evictPaths then drain it.
            self.background_evict_threshold = max(1, (2 * self.stash_capacity) // 3)
        bad = [lv for lv in self.deadq_levels if lv < 0 or lv >= self.levels]
        if bad:
            raise ValueError(f"deadq_levels out of range: {bad}")

    # ---------------------------------------------------------------- sizes

    @property
    def n_leaves(self) -> int:
        return 1 << (self.levels - 1)

    @property
    def n_buckets(self) -> int:
        return (1 << self.levels) - 1

    def buckets_at(self, level: int) -> int:
        """Number of buckets at ``level``."""
        self._check_level(level)
        return 1 << level

    @property
    def z_max(self) -> int:
        """Largest physical bucket across levels (array column count)."""
        return max(g.z_total for g in self.geometry)

    @property
    def total_slots(self) -> int:
        """Physical slots in the whole tree."""
        return sum(self.buckets_at(lv) * g.z_total for lv, g in enumerate(self.geometry))

    @property
    def tree_bytes(self) -> int:
        """Physical data bytes of the ORAM tree (excludes metadata)."""
        return self.total_slots * self.block_bytes

    @property
    def user_bytes(self) -> int:
        """Bytes of protected user data."""
        return self.n_real_blocks * self.block_bytes

    @property
    def space_utilization(self) -> float:
        """user data / ORAM tree size, the paper's utilization metric."""
        return self.user_bytes / self.tree_bytes

    # ------------------------------------------------------------- helpers

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.levels:
            raise ValueError(f"level {level} out of range [0, {self.levels})")

    def level_capacity_fraction(self, level: int) -> float:
        """Fraction of total tree bytes held by ``level``."""
        g = self.geometry[level]
        return self.buckets_at(level) * g.z_total / self.total_slots

    def describe(self) -> str:
        """Human-readable one-line-per-level geometry summary."""
        lines = [f"{self.name}: L={self.levels}, A={self.evict_rate}, "
                 f"N={self.n_real_blocks} blocks, tree={self.tree_bytes / 2**20:.1f} MiB, "
                 f"util={self.space_utilization:.1%}"]
        spans: List[Tuple[int, int, BucketGeometry]] = []
        for lv, g in enumerate(self.geometry):
            if spans and spans[-1][2] == g:
                spans[-1] = (spans[-1][0], lv, g)
            else:
                spans.append((lv, lv, g))
        for lo, hi, g in spans:
            rng = f"L{lo}" if lo == hi else f"L{lo}-L{hi}"
            lines.append(
                f"  {rng}: Z={g.z_total} (Z'={g.z_real}, S={g.s_reserved}, "
                f"Y={g.overlap}, r={g.remote_extension}) sustain={g.sustain}"
            )
        return "\n".join(lines)


def uniform_geometry(
    levels: int,
    z_real: int,
    s_reserved: int,
    overlap: int = 0,
    remote_extension: int = 0,
) -> Tuple[BucketGeometry, ...]:
    """Same bucket shape at every level."""
    g = BucketGeometry(z_real, s_reserved, overlap, remote_extension)
    return tuple([g] * levels)


def override_levels(
    geometry: Tuple[BucketGeometry, ...],
    overrides: Dict[int, BucketGeometry],
) -> Tuple[BucketGeometry, ...]:
    """Return ``geometry`` with specific levels replaced."""
    out = list(geometry)
    for level, g in overrides.items():
        if not 0 <= level < len(out):
            raise ValueError(f"override level {level} out of range")
        out[level] = g
    return tuple(out)


def scaled_treetop(levels: int) -> int:
    """Scale the paper's 10-of-24 treetop cache to an ``levels``-deep tree."""
    return max(1, min(levels - 1, round(levels * 10 / 24)))


def bottom_range(levels: int, count: int) -> Tuple[int, ...]:
    """Indices of the bottom ``count`` levels (closest to the leaves)."""
    count = max(0, min(count, levels))
    return tuple(range(levels - count, levels))
