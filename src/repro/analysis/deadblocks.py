"""Dead-block lifetimes (paper Fig. 12).

:class:`LifetimeTracker` measures how long each slot stays dead -- from
the readPath that consumed it to the reshuffle or remote rental that
reused its space -- per level (Fig. 12's min/avg/max lines, which spread
over orders of magnitude between middle and leaf levels). The dead-block
populations of Figs. 2 and 3 are the bucket store's own counts
(``total_dead_slots`` / ``dead_slots_by_level``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.oram.observer import BaseObserver


class LifetimeTracker(BaseObserver):
    """Per-level dead-block lifetime statistics.

    Lifetime is measured in online accesses, exactly as the paper's
    Fig. 12: the clock is the controller's online access counter, a
    slot's death is the read that consumes it, and its reclamation is
    the reshuffle rewrite or remote rental that reuses the space.
    """

    def __init__(self, levels: int) -> None:
        self.levels = levels
        self._clock = 0
        self._death_time: Dict[Tuple[int, int], int] = {}
        self.count = np.zeros(levels, dtype=np.int64)
        self.total = np.zeros(levels, dtype=np.float64)
        self.minimum = np.full(levels, np.inf)
        self.maximum = np.zeros(levels, dtype=np.float64)

    def on_access_start(self, access_no: int) -> None:
        self._clock = access_no

    def on_slot_dead(self, bucket: int, slot: int, level: int) -> None:
        self._death_time[(bucket, slot)] = self._clock

    def on_slot_reclaimed(self, bucket: int, slot: int, level: int, how: str) -> None:
        died = self._death_time.pop((bucket, slot), None)
        if died is None:
            return
        life = self._clock - died
        self.count[level] += 1
        self.total[level] += life
        if life < self.minimum[level]:
            self.minimum[level] = life
        if life > self.maximum[level]:
            self.maximum[level] = life

    # ------------------------------------------------------------- queries

    def mean(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.count > 0, self.total / self.count, np.nan)

    def rows(self) -> List[Dict[str, float]]:
        """Per-level {level, n, min, avg, max} (NaN-free for display)."""
        means = self.mean()
        out = []
        for lv in range(self.levels):
            if self.count[lv] == 0:
                continue
            out.append({
                "level": lv,
                "reclaimed": int(self.count[lv]),
                "min": float(self.minimum[lv]),
                "avg": float(means[lv]),
                "max": float(self.maximum[lv]),
            })
        return out
