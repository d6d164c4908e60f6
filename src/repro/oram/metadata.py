"""Bucket-metadata bit budget (paper Table I).

Ring ORAM keeps a small metadata record per bucket (in a separate
metadata tree) that the controller reads before each operation touching
the bucket. AB-ORAM appends five fields -- ``remote``, ``remoteAddr``,
``remoteInd``, ``dynamicS`` (block-related) and ``status``
(slot-related) -- to implement remote allocation.

This module reproduces the table symbolically: given an
:class:`~repro.oram.config.OramConfig` it computes the exact bit count
of every field for both protocols, and checks the paper's sizing claim
that Ring ORAM metadata fits one 64B block (33B) and AB-ORAM stays
within a block as well (33B + 28B = 61B with R = 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.oram.config import OramConfig


def _log2ceil(value: int) -> int:
    """Bits needed to address ``value`` distinct items (min 1)."""
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    return max(1, math.ceil(math.log2(value))) if value > 1 else 1


@dataclass(frozen=True)
class MetadataField:
    """One row of Table I."""

    name: str
    bits: int
    category: str  # "block" or "slot"
    function: str


def ring_metadata_fields(cfg: OramConfig) -> List[MetadataField]:
    """Baseline Ring ORAM per-bucket metadata fields at the leaf level.

    Leaf buckets dominate the tree; Table I is written for the
    uniform-geometry baseline where all levels agree.
    """
    g = cfg.geometry[-1]
    s_bits = _log2ceil(max(2, g.sustain_unextended + 1))
    n_block = cfg.n_real_blocks
    label_bits = cfg.levels  # L + 1 in the paper's 0..L level convention
    z_bits = _log2ceil(max(2, g.z_total))
    return [
        MetadataField("count", 1 * s_bits, "block",
                      "readPath hits since the last refresh"),
        MetadataField("addr", g.z_real * _log2ceil(n_block), "block",
                      "address of each real block"),
        MetadataField("label", g.z_real * label_bits, "block",
                      "path id of each real block"),
        MetadataField("ptr", g.z_real * z_bits, "block",
                      "slot offset of each real block"),
        MetadataField("valid", g.z_total * 1, "slot",
                      "per-slot validity"),
    ]


def ab_metadata_fields(cfg: OramConfig) -> List[MetadataField]:
    """AB-ORAM per-bucket metadata: Ring fields plus the five additions."""
    g = cfg.geometry[-1]
    fields = ring_metadata_fields(cfg)
    r = cfg.max_remote_slots
    bucket_bits = _log2ceil(cfg.n_buckets)
    z_bits = _log2ceil(max(2, g.z_total))
    s_bits = _log2ceil(max(2, g.sustain + 1))
    fields.extend([
        MetadataField("remote", r * 1, "block",
                      "whether the block is remotely allocated"),
        MetadataField("remoteAddr", r * bucket_bits, "block",
                      "host bucket of a remotely allocated block"),
        MetadataField("remoteInd", r * z_bits, "block",
                      "host slot of a remotely allocated block"),
        MetadataField("dynamicS", s_bits, "block",
                      "current granted S of the bucket"),
        MetadataField("status", g.z_total * 2, "slot",
                      "slot status (REFRESHED, ALLOCATED, DEAD)"),
    ])
    return fields


def metadata_bits(fields: List[MetadataField]) -> int:
    return sum(f.bits for f in fields)


def metadata_bytes(fields: List[MetadataField]) -> int:
    return (metadata_bits(fields) + 7) // 8


def metadata_blocks(cfg: OramConfig, fields: List[MetadataField]) -> int:
    """64B blocks needed to store one bucket's metadata."""
    return max(1, math.ceil(metadata_bytes(fields) / cfg.block_bytes))


def needs_extensions(cfg: OramConfig) -> bool:
    """True if the configuration uses DeadQ tracking / remote allocation."""
    return bool(cfg.deadq_levels) or any(
        g.remote_extension > 0 for g in cfg.geometry
    )


def record_blocks(cfg: OramConfig) -> int:
    """64B blocks of one bucket's metadata record under ``cfg``.

    The one home of the record width: AB-ORAM's fields when the config
    uses the extensions, Ring ORAM's otherwise. The controller's
    ``metadata_blocks`` and the DRAM layout's stride both come from it,
    so the lines the sink steps through match the blocks the controller
    reports.
    """
    fields = (
        ab_metadata_fields(cfg) if needs_extensions(cfg)
        else ring_metadata_fields(cfg)
    )
    return metadata_blocks(cfg, fields)


def table1(cfg: OramConfig) -> Dict[str, Dict[str, object]]:
    """Reproduce Table I: field -> {ring_bits, ab_bits, category, function}."""
    ring = {f.name: f for f in ring_metadata_fields(cfg)}
    ab = {f.name: f for f in ab_metadata_fields(cfg)}
    rows: Dict[str, Dict[str, object]] = {}
    for name, f in ab.items():
        rows[name] = {
            "category": f.category,
            "ab_bits": f.bits,
            "ring_bits": ring[name].bits if name in ring else 0,
            "function": f.function,
        }
    return rows


def summarize(cfg: OramConfig) -> Dict[str, object]:
    """Byte/block budget for Ring vs AB metadata at the leaf level."""
    ring = ring_metadata_fields(cfg)
    ab = ab_metadata_fields(cfg)
    ring_b = metadata_bytes(ring)
    ab_b = metadata_bytes(ab)
    return {
        "ring_bytes": ring_b,
        "ab_bytes": ab_b,
        "ab_extra_bytes": ab_b - ring_b,
        "ring_blocks": metadata_blocks(cfg, ring),
        "ab_blocks": metadata_blocks(cfg, ab),
        "fits_one_block": ab_b <= cfg.block_bytes,
    }


def deadq_onchip_bytes(cfg: OramConfig) -> int:
    """On-chip cost of the DeadQ queues (paper section VIII-H, about 21KB).

    Each entry stores {slotAddr, slotInd}: a bucket id plus a slot
    offset, rounded up to whole bits.
    """
    bucket_bits = _log2ceil(cfg.n_buckets)
    z_bits = _log2ceil(max(2, cfg.z_max))
    entry_bits = bucket_bits + z_bits
    total_bits = len(cfg.deadq_levels) * cfg.deadq_capacity * entry_bits
    return (total_bits + 7) // 8
