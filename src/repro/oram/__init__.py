"""Ring/Path ORAM substrate.

This package implements the ORAM machinery that AB-ORAM (the paper's
contribution, in :mod:`repro.core`) builds on:

- :mod:`repro.oram.config` -- tree geometry and protocol parameters,
  including per-level (non-uniform) bucket shapes.
- :mod:`repro.oram.tree` -- level-order bucket addressing, path
  enumeration, and the reverse-lexicographic eviction order.
- :mod:`repro.oram.bucket` -- numpy-backed storage for every bucket's
  slots, access counters, and per-slot status/generation words.
- :mod:`repro.oram.stash` / :mod:`repro.oram.position_map` -- the
  on-chip ORAM controller state.
- :mod:`repro.oram.metadata` -- the bucket-metadata bit budget of the
  paper's Table I (Ring ORAM vs. AB-ORAM fields).
- :mod:`repro.oram.ring` -- the Ring ORAM controller (readPath,
  evictPath, earlyReshuffle, background eviction, treetop cache) with
  Bucket Compaction (CB) overlap integrated.
- :mod:`repro.oram.path` -- a classic Path ORAM controller, kept as the
  substrate Ring ORAM historically builds on and as a comparator.
"""

from repro.oram.config import BucketGeometry, OramConfig
from repro.oram.stash import Stash, StashOverflowError
from repro.oram.position_map import PositionMap
from repro.oram.bucket import BucketStore, SlotStatus
from repro.oram.ring import RingOram
from repro.oram.path import PathOram
from repro.oram.plb import RecursivePosMap
from repro.oram.datastore import EncryptedTreeStore
from repro.oram.validate import diagnose
from repro.oram.linear import LinearScanOram
from repro.oram.config_io import load_config, save_config

__all__ = [
    "LinearScanOram",
    "load_config",
    "save_config",
    "RecursivePosMap",
    "EncryptedTreeStore",
    "diagnose",
    "BucketGeometry",
    "OramConfig",
    "Stash",
    "StashOverflowError",
    "PositionMap",
    "BucketStore",
    "SlotStatus",
    "RingOram",
    "PathOram",
]
