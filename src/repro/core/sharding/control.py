"""The fleet control plane: each shard's health log, derived.

Each shard of a fleet runs in its own worker process on its own
simulated clock; the control plane lives in the parent and never
touches a shard directly. A shard's health log is a pure function of
what its cell returns -- its serving window ``[start_ns, end_ns]`` and
the degraded episodes (``{"enter_ns", "exit_ns"}`` records, in order)
of the resilient serving loop -- and :func:`shard_transitions` derives
it directly::

    REGISTERED --heartbeat|complete--> HEALTHY
    HEALTHY    --degraded_enter--> DEGRADED     (quarantine hit)
    DEGRADED   --degraded_exit--> REBUILDING    (repair + journal)
    REBUILDING --heartbeat|complete--> HEALTHY  (back in rotation)
    REBUILDING --degraded_enter--> DEGRADED     (the repair re-quarantined)

A REGISTERED or REBUILDING shard turns HEALTHY at the first heartbeat
tick ``start_ns + k * HEARTBEAT_NS`` (k >= 1) at or after its last
exit, before its next enter and before ``end_ns``. With no such tick
after the last episode it turns HEALTHY on ``complete`` at ``end_ns``:
a clean completion is the same evidence of health a tick would be.

:func:`control_block` folds every shard's log into the report's
``control`` block. The logs are pure functions of each shard's seeded
run, so the block is byte-stable: the same fleet config produces the
same transition log at any worker count, which is what lets reports
embed it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

REGISTERED = "registered"
HEALTHY = "healthy"
DEGRADED = "degraded"
REBUILDING = "rebuilding"

#: Simulated ns between two heartbeat ticks of a serving shard.
HEARTBEAT_NS = 100_000.0

#: What a served shard's cell hands the control plane:
#: ``(start_ns, end_ns, episodes)``.
ShardWindow = Tuple[float, float, Sequence[Dict[str, Any]]]


def shard_transitions(
    start_ns: float, end_ns: float, episodes: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """The health log of one shard that served ``[start_ns, end_ns]``
    through ``episodes``: ``{"ns", "from", "to", "event"}`` entries."""
    log: List[Dict[str, Any]] = []
    state = REGISTERED

    def move(ns: float, to: str, event: str) -> None:
        nonlocal state
        log.append({"ns": ns, "from": state, "to": to, "event": event})
        state = to

    k, since_ns = 1, start_ns
    for episode in [*episodes, None]:
        until_ns = end_ns if episode is None else episode["enter_ns"]
        while start_ns + k * HEARTBEAT_NS < since_ns:
            k += 1
        if start_ns + k * HEARTBEAT_NS < until_ns:
            move(start_ns + k * HEARTBEAT_NS, HEALTHY, "heartbeat")
        if episode is not None:
            move(episode["enter_ns"], DEGRADED, "degraded_enter")
            move(episode["exit_ns"], REBUILDING, "degraded_exit")
            since_ns = episode["exit_ns"]
    if state != HEALTHY:
        move(end_ns, HEALTHY, "complete")
    return log


def control_block(
    served: Mapping[int, ShardWindow], failed: Iterable[int],
) -> Dict[str, Any]:
    """The deterministic ``control`` block of a fleet report: one log
    per served shard; a ``failed`` shard stays REGISTERED."""
    shards = [
        {"shard": shard, "state": REGISTERED, "completed": False,
         "transitions": []}
        for shard in failed
    ]
    for shard, window in served.items():
        log = shard_transitions(*window)
        shards.append({
            "shard": shard,
            "state": log[-1]["to"],
            "completed": True,
            "transitions": log,
        })
    shards.sort(key=lambda s: s["shard"])
    return {
        "heartbeat_ns": HEARTBEAT_NS,
        "all_healthy": bool(shards) and all(
            s["state"] == HEALTHY for s in shards
        ),
        "shards": shards,
    }
