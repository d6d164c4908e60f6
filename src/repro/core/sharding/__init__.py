"""Horizontal scale: N AB-ORAM subtrees behind an oblivious router.

- :mod:`~repro.core.sharding.partition` -- the keyed-PRF partition map
  (block/key -> shard; the security-relevant piece).
- :mod:`~repro.core.sharding.sharded` -- the partitioned trace
  simulator with its merged fleet ``sim`` block.
- :mod:`~repro.core.sharding.control` -- each shard's health log,
  derived from its serving window and degraded episodes.

The serving fleet built on these (per-shard worker processes, the
kill-a-shard drill) is :mod:`repro.serve.fleet`: this package imports
nothing from ``repro.serve``, and ``fleet.py`` here is only a
compatibility import for the end-to-end benchmark. See
``docs/design/sharding.md`` for the partition-map security argument
and the control-plane health log.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.core.sharding.control": ("control_block", "shard_transitions"),
    "repro.core.sharding.partition": ("PartitionMap",),
    "repro.core.sharding.sharded": (
        "ShardedSimOutcome", "levels_for_blocks", "run_sharded_sim",
        "shard_jobs", "split_trace",
    ),
})
