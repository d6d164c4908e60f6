"""User-facing AB-ORAM controller.

:class:`AbOram` bundles a Ring ORAM instance with the AB-ORAM
extensions (DeadQ tracking + remote allocation) whenever the
configuration asks for them, and exposes a small block-device-style API
(``read``/``write``) plus the statistics the paper reports.

Quick start::

    from repro.core.ab_oram import AbOram

    oram = AbOram.from_scheme("ab", levels=14, seed=7)
    oram.write(42, b"secret payload")
    assert oram.read(42) == b"secret payload"
    print(oram.space_report())
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.core import schemes as schemes_mod
from repro.core.remote import RemoteAllocator
from repro.oram.config import OramConfig
from repro.oram.ring import RingOram
from repro.oram.stats import CountingSink, MemorySink


def needs_extensions(cfg: OramConfig) -> bool:
    """True if the configuration uses DeadQ tracking / remote allocation."""
    return bool(cfg.deadq_levels) or any(
        g.remote_extension > 0 for g in cfg.geometry
    )


def build_oram(
    cfg: OramConfig,
    sink: Optional[MemorySink] = None,
    seed: int = 0,
    observers: Sequence[Any] = (),
    store_data: bool = False,
    datastore: Optional[Any] = None,
    posmap_mode: str = "onchip",
    robustness: Optional[Any] = None,
) -> RingOram:
    """Construct a RingOram with AB extensions iff the config needs them."""
    ext = RemoteAllocator(cfg) if needs_extensions(cfg) else None
    return RingOram(
        cfg,
        sink=sink,
        seed=seed,
        extensions=ext,
        observers=observers,
        store_data=store_data,
        datastore=datastore,
        posmap_mode=posmap_mode,
        robustness=robustness,
    )


class AbOram:
    """High-level facade over a (possibly AB-extended) Ring ORAM: a
    warm-filled tree that keeps block payloads."""

    def __init__(self, cfg: OramConfig, seed: int = 0) -> None:
        self.cfg = cfg
        self.oram = build_oram(cfg, seed=seed, store_data=True)
        self.oram.warm_fill()

    @classmethod
    def from_scheme(
        cls,
        scheme: str,
        levels: int = schemes_mod.PAPER_LEVELS,
        **kwargs: Any,
    ) -> "AbOram":
        """Build from a paper scheme name (baseline/ir/dr/ns/ab/ring)."""
        return cls(schemes_mod.by_name(scheme, levels), **kwargs)

    # ----------------------------------------------------------- block API

    @property
    def n_blocks(self) -> int:
        """Number of protected user blocks."""
        return self.cfg.n_real_blocks

    def read(self, block: int) -> Any:
        return self.oram.access(block, write=False)

    def write(self, block: int, value: Any) -> None:
        self.oram.access(block, write=True, value=value)

    # --------------------------------------------------------------- stats

    def space_report(self) -> Dict[str, object]:
        """Space metrics in the paper's terms."""
        cfg = self.cfg
        return {
            "scheme": cfg.name,
            "tree_bytes": cfg.tree_bytes,
            "user_bytes": cfg.user_bytes,
            "space_utilization": cfg.space_utilization,
            "levels": cfg.levels,
            "blocks_protected": cfg.n_real_blocks,
        }

    def runtime_report(self) -> Dict[str, object]:
        """Protocol counters after some accesses."""
        oram = self.oram
        report: Dict[str, object] = {
            "online_accesses": oram.online_accesses,
            "background_accesses": oram.background_accesses,
            "evictions": oram.evict_counter,
            "stash_occupancy": oram.stash.occupancy,
            "stash_peak": oram.stash.peak_occupancy,
            "reshuffles_by_level": oram.store.reshuffles_by_level.tolist(),
            "dead_blocks": oram.store.total_dead_slots(),
        }
        if isinstance(oram.sink, CountingSink):
            report["memory"] = oram.sink.summary()
        if oram.ext is not None:
            report["remote"] = oram.ext.stats()
        return report

    def check(self) -> None:
        """Assert global protocol invariants (delegates to the controller)."""
        self.oram.check_invariants()
