"""Analyses over ORAM configurations and simulation runs.

- :mod:`repro.analysis.space` -- closed-form space math (tree bytes,
  normalized space demand, utilization, metadata/on-chip overheads).
  These are exact at the paper's 24-level geometry.
- :mod:`repro.analysis.deadblocks` -- observers measuring dead-block
  populations over time/levels and dead-block lifetimes (Figs. 2, 3, 12).
- :mod:`repro.analysis.stash_stats` -- stash occupancy distributions
  (sizing the stash and the background-eviction threshold).
- :mod:`repro.analysis.stattests` -- statistical tests backing the
  security claims (chi-square uniformity, binomial CIs).
- :mod:`repro.analysis.report` -- plain-text table and bar rendering
  shared by the figure benchmarks and examples.
"""

from repro.analysis.space import (
    normalized_space,
    space_table,
    utilization_table,
)
from repro.analysis.deadblocks import DeadBlockCensus, LifetimeTracker
from repro.analysis.stash_stats import StashStats
from repro.analysis import report, stattests

__all__ = [
    "normalized_space",
    "space_table",
    "utilization_table",
    "DeadBlockCensus",
    "LifetimeTracker",
    "StashStats",
    "report",
    "stattests",
]
