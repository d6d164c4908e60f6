"""Stash occupancy statistics.

Bucket Compaction's correctness story hangs on the stash: green blocks
push real data on-chip, and background eviction (dummy accesses) must
kick in before the stash fills. This observer samples occupancy at
every online access and summarizes the distribution (mean, tail
percentiles, peak), which is what one needs to size ``stash_capacity``
and ``background_evict_threshold`` for a configuration -- and what the
background-eviction ablation benchmark sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.oram.observer import BaseObserver


class StashStats(BaseObserver):
    """Observer sampling stash occupancy once per online access."""

    def __init__(self, timeline_interval: int = 0) -> None:
        if timeline_interval < 0:
            raise ValueError("timeline_interval must be >= 0")
        self._oram = None
        self._samples: List[int] = []
        self.timeline_interval = timeline_interval
        self.timeline: List[tuple] = []

    def attach(self, oram) -> "StashStats":
        """Bind to a controller and register as its observer."""
        self._oram = oram
        oram.add_observer(self)
        return self

    def on_access_start(self, access_no: int) -> None:
        if self._oram is None:
            return
        occ = self._oram.stash.occupancy
        self._samples.append(occ)
        if self.timeline_interval and access_no % self.timeline_interval == 0:
            self.timeline.append((access_no, occ))

    # ------------------------------------------------------------- queries

    @property
    def n_samples(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float:
        if not self._samples:
            raise ValueError("no samples collected")
        return float(np.percentile(self._samples, q))

    def summary(self) -> Dict[str, float]:
        if not self._samples:
            raise ValueError("no samples collected")
        arr = np.asarray(self._samples)
        return {
            "samples": float(arr.size),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max()),
        }

    def histogram(self, bins: Optional[int] = None) -> np.ndarray:
        """Occupancy histogram (index = occupancy, value = samples)."""
        if not self._samples:
            raise ValueError("no samples collected")
        arr = np.asarray(self._samples)
        length = (bins if bins is not None else int(arr.max()) + 1)
        return np.bincount(np.clip(arr, 0, length - 1), minlength=length)
