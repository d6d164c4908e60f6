"""Horizontal scale: N AB-ORAM subtrees behind an oblivious router.

- :mod:`~repro.core.sharding.partition` -- the keyed-PRF partition map
  (block/key -> shard; the security-relevant piece).
- :mod:`~repro.core.sharding.sharded` -- the partitioned trace
  simulator with its merged fleet ``sim`` block.
- :mod:`~repro.core.sharding.control` -- shard registration,
  heartbeats, and the health state machine.

The serving fleet built on these (per-shard worker processes, the
kill-a-shard drill) is :mod:`repro.serve.fleet`: this package imports
nothing from ``repro.serve``, and ``fleet.py`` here is only a
compatibility import for the end-to-end benchmark. See
``docs/design/sharding.md`` for the partition-map security argument
and the control-plane state diagram.
"""

from repro.core.sharding.control import (
    ControlPlane, ShardEvent, ShardHealth, heartbeat_events,
)
from repro.core.sharding.partition import PartitionMap
from repro.core.sharding.sharded import (
    ShardedSimOutcome, levels_for_blocks, run_sharded_sim, split_trace,
)

__all__ = [
    "ControlPlane",
    "PartitionMap",
    "ShardEvent",
    "ShardHealth",
    "ShardedSimOutcome",
    "heartbeat_events",
    "levels_for_blocks",
    "run_sharded_sim",
    "split_trace",
]
