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

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.oram.config": ("BucketGeometry", "OramConfig"),
    "repro.oram.stash": ("Stash", "StashOverflowError"),
    "repro.oram.position_map": ("PositionMap",),
    "repro.oram.bucket": ("BucketStore", "SlotStatus"),
    "repro.oram.ring": ("RingOram",),
    "repro.oram.path": ("PathOram",),
    "repro.oram.plb": ("RecursivePosMap",),
    "repro.oram.datastore": ("EncryptedTreeStore",),
    "repro.oram.validate": ("diagnose",),
    "repro.oram.config_io": ("load_config", "save_config"),
})
