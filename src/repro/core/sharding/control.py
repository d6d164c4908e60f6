"""The fleet control plane: registration, heartbeats, health states.

Each shard of a fleet runs in its own worker process on its own
simulated clock; the control plane lives in the parent and never
touches a shard directly. Instead, every shard cell returns a
deterministic *event stream* stamped in its simulated DRAM-ns --
``register`` at start, ``heartbeat`` at a fixed cadence, paired
``degraded_enter``/``degraded_exit`` markers when the resilient
serving loop quarantines storage, and ``complete`` at the end. The
parent merges all streams into one global timeline (ordered by
``(ns, shard, kind)``) and drives a per-shard state machine over it::

    REGISTERED --heartbeat--> HEALTHY
    HEALTHY    --degraded_enter--> DEGRADED        (quarantine hit)
    DEGRADED   --degraded_exit--> REBUILDING       (repair + journal)
    REBUILDING --heartbeat--> HEALTHY              (back in rotation)
    any live   --heartbeat gap > MISS_AFTER*HEARTBEAT_NS--> DEAD
    DEAD       --heartbeat--> REBUILDING           (rejoin)

Because the event streams are pure functions of each shard's seeded
run and the merge order is total, the control summary is byte-stable:
the same fleet config produces the same transition log at any worker
count, which is what lets reports embed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

REGISTERED = "registered"
HEALTHY = "healthy"
DEGRADED = "degraded"
REBUILDING = "rebuilding"
DEAD = "dead"

#: Simulated ns between two heartbeats of a serving shard.
HEARTBEAT_NS = 100_000.0
#: Heartbeat intervals a shard may miss before it is declared DEAD.
MISS_AFTER = 3

#: Event kinds a shard stream may carry, in tie-break order for events
#: sharing a timestamp (an exit processes before the heartbeat that
#: proves the rebuild worked).
EVENT_KINDS = (
    "register", "degraded_enter", "degraded_exit", "heartbeat", "complete",
)


@dataclass(frozen=True)
class ShardEvent:
    """One control-plane observation from a shard's simulated timeline."""

    shard: int
    kind: str
    ns: float

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {"shard": self.shard, "kind": self.kind, "ns": self.ns}


class ShardHealth:
    """State machine of one registered shard."""

    def __init__(self, shard: int, registered_ns: float) -> None:
        self.shard = shard
        self.state = REGISTERED
        self.last_heartbeat_ns = registered_ns
        self.completed = False
        #: Transition log: (ns, from_state, to_state, event_kind).
        self.transitions: List[Tuple[float, str, str, str]] = []

    def _move(self, ns: float, to_state: str, kind: str) -> None:
        if to_state != self.state:
            self.transitions.append((ns, self.state, to_state, kind))
            self.state = to_state

    def observe(self, event: ShardEvent) -> None:
        kind = event.kind
        if kind == "heartbeat":
            self.last_heartbeat_ns = event.ns
            if self.state == DEAD:
                # A DEAD shard's first heartbeat re-enters through
                # REBUILDING: it must prove a clean cycle before
                # counting as healthy again.
                self._move(event.ns, REBUILDING, kind)
            elif self.state in (REGISTERED, REBUILDING):
                self._move(event.ns, HEALTHY, kind)
        elif kind == "degraded_enter":
            self._move(event.ns, DEGRADED, kind)
        elif kind == "degraded_exit":
            if self.state == DEGRADED:
                self._move(event.ns, REBUILDING, kind)
        elif kind == "complete":
            self.completed = True
            self.last_heartbeat_ns = event.ns
            if self.state in (REGISTERED, REBUILDING):
                # The run finished before the next heartbeat tick; a
                # clean completion is the same evidence of health a
                # heartbeat would have been.
                self._move(event.ns, HEALTHY, kind)

    def miss_check(self, now_ns: float, timeout_ns: float) -> None:
        """Declare the shard DEAD if its heartbeats stopped."""
        if self.completed or self.state == DEAD:
            return
        if now_ns - self.last_heartbeat_ns > timeout_ns:
            self._move(now_ns, DEAD, "heartbeat")


class ControlPlane:
    """Fleet-scope registry driven by merged shard event streams."""

    def __init__(self) -> None:
        self.shards: Dict[int, ShardHealth] = {}

    def register(self, shard: int, ns: float = 0.0) -> ShardHealth:
        if shard in self.shards:
            raise ValueError(f"shard {shard} already registered")
        health = ShardHealth(shard, ns)
        self.shards[shard] = health
        return health

    def observe(self, event: ShardEvent) -> None:
        if event.kind == "register":
            if event.shard not in self.shards:
                self.register(event.shard, event.ns)
            return
        if event.shard not in self.shards:
            raise ValueError(f"event for unregistered shard {event.shard}")
        # A long silence is noticed when the *next* event (from any
        # shard) advances the timeline past the miss window.
        self.shards[event.shard].miss_check(
            event.ns, MISS_AFTER * HEARTBEAT_NS
        )
        self.shards[event.shard].observe(event)

    def run(self, events: Iterable[ShardEvent]) -> None:
        """Drive the fleet over a merged timeline (total order)."""
        ordered = sorted(
            events, key=lambda e: (e.ns, e.shard, EVENT_KINDS.index(e.kind))
        )
        for event in ordered:
            self.observe(event)
        if ordered:
            self.finalize(ordered[-1].ns)

    def finalize(self, end_ns: float) -> None:
        """End-of-run sweep: shards that fell silent are DEAD."""
        for health in self.shards.values():
            health.miss_check(end_ns, MISS_AFTER * HEARTBEAT_NS)

    # -------------------------------------------------------------- report

    def all_healthy(self) -> bool:
        return bool(self.shards) and all(
            h.state == HEALTHY for h in self.shards.values()
        )

    def summary(self) -> Dict[str, Any]:
        """Deterministic control block for fleet reports."""
        shards = []
        for shard in sorted(self.shards):
            h = self.shards[shard]
            shards.append({
                "shard": shard,
                "state": h.state,
                "completed": h.completed,
                "transitions": [
                    {"ns": ns, "from": a, "to": b, "event": kind}
                    for ns, a, b, kind in h.transitions
                ],
            })
        return {
            "heartbeat_ns": HEARTBEAT_NS,
            "miss_after": MISS_AFTER,
            "all_healthy": self.all_healthy(),
            "shards": shards,
        }


def heartbeat_events(
    shard: int, start_ns: float, end_ns: float,
    episodes: Sequence[Dict[str, Any]] = (),
) -> List[ShardEvent]:
    """The deterministic event stream of one shard's serving window:
    its heartbeat train, then an enter/exit marker pair per degraded
    episode (``{"enter_ns", "exit_ns"}`` records of the resilient loop).
    """
    events = [ShardEvent(shard, "register", start_ns)]
    k = 1
    while start_ns + k * HEARTBEAT_NS < end_ns:
        events.append(
            ShardEvent(shard, "heartbeat", start_ns + k * HEARTBEAT_NS)
        )
        k += 1
    events.append(ShardEvent(shard, "complete", end_ns))
    for episode in episodes:
        events.append(ShardEvent(shard, "degraded_enter", episode["enter_ns"]))
        events.append(ShardEvent(shard, "degraded_exit", episode["exit_ns"]))
    return events
