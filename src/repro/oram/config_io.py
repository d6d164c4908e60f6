"""Configuration serialization.

Experiments should be replayable artifacts: a result file that cannot
say exactly which geometry produced it is half a result. These helpers
turn :class:`~repro.oram.config.OramConfig` into plain dicts / JSON and
back, round-tripping every field including per-level geometry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.oram.config import BucketGeometry, OramConfig

PathLike = Union[str, Path]

_FORMAT = 1


def geometry_to_dict(g: BucketGeometry) -> Dict[str, int]:
    return {
        "z_real": g.z_real,
        "s_reserved": g.s_reserved,
        "overlap": g.overlap,
        "remote_extension": g.remote_extension,
    }


def _get(d: Any, key: str, where: str) -> Any:
    """``d[key]``, or a ValueError naming ``where.key``."""
    if not isinstance(d, dict):
        raise ValueError(
            f"{where}: expected a JSON object, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{where}.{key}: missing")
    return d[key]


def geometry_from_dict(d: Dict[str, int],
                       where: str = "bucket") -> BucketGeometry:
    return BucketGeometry(
        z_real=int(_get(d, "z_real", where)),
        s_reserved=int(_get(d, "s_reserved", where)),
        overlap=int(d.get("overlap", 0)),
        remote_extension=int(d.get("remote_extension", 0)),
    )


def config_to_dict(cfg: OramConfig) -> Dict[str, object]:
    """A JSON-safe dict capturing every configuration field.

    Identical consecutive levels are run-length encoded, which keeps
    the paper's 24-level configs readable.
    """
    runs: List[Dict[str, object]] = []
    for g in cfg.geometry:
        if runs and geometry_from_dict(runs[-1]["bucket"]) == g:
            runs[-1]["count"] = int(runs[-1]["count"]) + 1
        else:
            runs.append({"count": 1, "bucket": geometry_to_dict(g)})
    return {
        "_format": _FORMAT,
        "name": cfg.name,
        "levels": cfg.levels,
        "geometry_runs": runs,
        "evict_rate": cfg.evict_rate,
        "block_bytes": cfg.block_bytes,
        "stash_capacity": cfg.stash_capacity,
        "background_evict_threshold": cfg.background_evict_threshold,
        "treetop_levels": cfg.treetop_levels,
        "deadq_capacity": cfg.deadq_capacity,
        "deadq_levels": list(cfg.deadq_levels),
        "utilization": cfg.utilization,
        "base_z_real": cfg.base_z_real,
        "n_real_blocks": cfg.n_real_blocks,
        "max_remote_slots": cfg.max_remote_slots,
    }


def config_from_dict(data: Dict[str, object]) -> OramConfig:
    """Inverse of :func:`config_to_dict`.

    A malformed document raises a ValueError naming the bad field
    (``config.geometry_runs[0].bucket.z_real: missing``, say).
    """
    fmt = _get(data, "_format", "config")
    if fmt != _FORMAT:
        raise ValueError(f"unsupported config format {fmt!r}")
    geometry: List[BucketGeometry] = []
    for i, run in enumerate(_get(data, "geometry_runs", "config")):
        where = f"config.geometry_runs[{i}]"
        geometry.extend(
            [geometry_from_dict(_get(run, "bucket", where), f"{where}.bucket")]
            * int(_get(run, "count", where))
        )
    return OramConfig(
        levels=int(_get(data, "levels", "config")),
        geometry=tuple(geometry),
        evict_rate=int(_get(data, "evict_rate", "config")),
        block_bytes=int(_get(data, "block_bytes", "config")),
        stash_capacity=int(_get(data, "stash_capacity", "config")),
        background_evict_threshold=_get(
            data, "background_evict_threshold", "config"),
        treetop_levels=int(_get(data, "treetop_levels", "config")),
        deadq_capacity=int(_get(data, "deadq_capacity", "config")),
        deadq_levels=tuple(_get(data, "deadq_levels", "config")),
        utilization=float(_get(data, "utilization", "config")),
        base_z_real=_get(data, "base_z_real", "config"),
        n_real_blocks=_get(data, "n_real_blocks", "config"),
        max_remote_slots=int(_get(data, "max_remote_slots", "config")),
        name=str(_get(data, "name", "config")),
    )


def save_config(cfg: OramConfig, path: PathLike) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=1))


def load_config(path: PathLike) -> OramConfig:
    """Read a :func:`save_config` file; a bad field is a ValueError."""
    return config_from_dict(json.loads(Path(path).read_text()))
