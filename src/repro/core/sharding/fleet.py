"""Compatibility import: the serving fleet lives in :mod:`repro.serve.fleet`.

``benchmarks/e2e/workloads.py`` imports these names from this path and
cannot be edited in the same PR as the code it measures. Nothing under
``repro.core`` imports this module; a benchmark-only PR re-points that
import and deletes this file.
"""

from repro.serve.fleet import (
    FleetConfig, KillShardDrill, _fleet_shard_task, run_fleet, shard_requests,
)

__all__ = [
    "FleetConfig", "KillShardDrill", "_fleet_shard_task", "run_fleet",
    "shard_requests",
]
