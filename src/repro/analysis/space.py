"""Closed-form space analysis.

Space demand in Ring ORAM is pure geometry: bytes = sum over levels of
(buckets at level) x (physical Z at level) x 64B. The paper's headline
numbers fall out exactly:

- DR (Z=6 for the bottom 6 of 24 levels): 75% of Baseline (25% saving);
- NS (Z=6 for the bottom 2): 81% (19% saving);
- AB (Z=6 / Z=5 split): 64.5% (~36% saving);
- utilization: Baseline 31.2% -> AB 48.5%.

These functions evaluate the same sums for arbitrary configurations and
are checked against the paper's numbers in the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.oram.config import OramConfig
from repro.oram.metadata import (
    ab_metadata_fields,
    deadq_onchip_bytes,
    metadata_bytes,
    ring_metadata_fields,
)


def normalized_space(schemes: Sequence[OramConfig]) -> Dict[str, float]:
    """Tree bytes of each scheme normalized to the first scheme's."""
    if not schemes:
        raise ValueError("need at least one scheme")
    base = schemes[0].tree_bytes
    return {cfg.name: cfg.tree_bytes / base for cfg in schemes}


def space_table(schemes: Sequence[OramConfig]) -> List[Dict[str, object]]:
    """One row per scheme: bytes, normalized bytes, saving (Fig. 8a)."""
    norm = normalized_space(schemes)
    rows = []
    for cfg in schemes:
        rows.append({
            "scheme": cfg.name,
            "tree_mib": cfg.tree_bytes / 2**20,
            "normalized": norm[cfg.name],
            "saving": 1.0 - norm[cfg.name],
        })
    return rows


def utilization_table(schemes: Sequence[OramConfig]) -> List[Dict[str, object]]:
    """One row per scheme: user data / tree size (Fig. 8b)."""
    return [
        {
            "scheme": cfg.name,
            "user_mib": cfg.user_bytes / 2**20,
            "tree_mib": cfg.tree_bytes / 2**20,
            "utilization": cfg.space_utilization,
        }
        for cfg in schemes
    ]


def level_space_profile(cfg: OramConfig) -> List[Dict[str, object]]:
    """Per-level capacity contribution (motivates bottom-level shrinking)."""
    return [
        {
            "level": lv,
            "buckets": cfg.buckets_at(lv),
            "z_total": cfg.geometry[lv].z_total,
            "bytes": cfg.buckets_at(lv) * cfg.geometry[lv].z_total * cfg.block_bytes,
            "fraction": cfg.level_capacity_fraction(lv),
        }
        for lv in range(cfg.levels)
    ]


def overhead_report(cfg: OramConfig) -> Dict[str, object]:
    """The paper's section VIII-H storage overheads for ``cfg``.

    On-chip: DeadQ bytes (about 21KB at the paper's setting of six
    1000-entry queues). Memory: per-bucket metadata for Ring vs AB and
    whether the AB record still fits one 64B metadata block.
    """
    ring_b = metadata_bytes(ring_metadata_fields(cfg))
    ab_b = metadata_bytes(ab_metadata_fields(cfg))
    return {
        "deadq_onchip_bytes": deadq_onchip_bytes(cfg),
        "deadq_levels": list(cfg.deadq_levels),
        "deadq_capacity": cfg.deadq_capacity,
        "ring_metadata_bytes": ring_b,
        "ab_metadata_bytes": ab_b,
        "ab_extra_metadata_bytes": ab_b - ring_b,
        "ab_metadata_fits_block": ab_b <= cfg.block_bytes,
        "metadata_tree_bytes": cfg.n_buckets * cfg.block_bytes,
    }
