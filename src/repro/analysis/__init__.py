"""Analyses over ORAM configurations and simulation runs.

- :mod:`repro.analysis.space` -- closed-form space math (tree bytes,
  normalized space demand, utilization, metadata/on-chip overheads).
  These are exact at the paper's 24-level geometry.
- :mod:`repro.analysis.deadblocks` -- the observer measuring dead-block
  lifetimes (Fig. 12).
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
from repro.analysis.deadblocks import LifetimeTracker
from repro.analysis import report, stattests

__all__ = [
    "normalized_space",
    "space_table",
    "utilization_table",
    "LifetimeTracker",
    "report",
    "stattests",
]
