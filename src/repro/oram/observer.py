"""Observer interface for ORAM controllers.

Controllers broadcast protocol events to attached observers; the
security attacker (:mod:`repro.core.security`) and the dead-block
analyses (:mod:`repro.analysis.deadblocks`) are implemented on top of
this. Subclass :class:`BaseObserver` and override what you need -- all
hooks default to no-ops, and a controller calls a hook only on the
observers that override it (``RingOram.add_observer`` records which),
so an event nobody listens to is not emitted at all.

Events:

- ``on_access_start(access_no)`` -- an online access begins.
- ``on_read_path(leaf, reads, target_bucket)`` -- a path was read;
  ``reads`` is the list of (bucket, slot, level, remote) tuples, where
  ``bucket`` is the *logical* bucket served (for a remote read the
  physical slot lives elsewhere).
- ``on_slot_dead(bucket, slot, level)`` -- a physical slot was consumed
  (it now holds useless data).
- ``on_slot_reclaimed(bucket, slot, level, how)`` -- a dead slot's
  space was reused: ``how`` is ``"reshuffle"`` (rewritten by its own
  bucket) or ``"remote"`` (rented to another bucket).
- ``on_slots_reclaimed(bucket, slots, level, how)`` -- the batched form
  of the above for one bucket's reshuffle, mirroring the batched sink
  call (``data_access_many``) the controller already issues for the
  same event. The default implementation fans
  out to ``on_slot_reclaimed`` per slot in ascending order, so scalar
  observers keep working unchanged; hot observers may override it.
- ``on_reshuffle(bucket, level, kind)`` -- a bucket was rewritten.
- ``on_evict_path(leaf)`` -- an evictPath completed.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple


class BaseObserver:
    """No-op implementation of every controller event hook."""

    def on_access_start(self, access_no: int) -> None:
        pass

    def on_read_path(
        self,
        leaf: int,
        reads: List[Tuple[int, int, int, bool]],
        target_bucket: int,
    ) -> None:
        pass

    def on_slot_dead(self, bucket: int, slot: int, level: int) -> None:
        pass

    def on_slot_reclaimed(
        self, bucket: int, slot: int, level: int, how: str
    ) -> None:
        pass

    def on_slots_reclaimed(
        self, bucket: int, slots: Sequence[int], level: int, how: str
    ) -> None:
        """Batched reclamation of several slots of one bucket.

        Semantically one :meth:`on_slot_reclaimed` per slot in order;
        the controller emits this coalesced form on the reshuffle path.
        """
        for slot in slots:
            self.on_slot_reclaimed(bucket, int(slot), level, how)

    def on_reshuffle(self, bucket: int, level: int, kind) -> None:
        pass

    def on_evict_path(self, leaf: int) -> None:
        pass


#: Every event hook of the protocol, in declaration order.
HOOKS = tuple(name for name in vars(BaseObserver) if name.startswith("on_"))


def hears(obs: Any, hook: str) -> bool:
    """Whether emitting ``hook`` to ``obs`` can do anything.

    False only when the call would land in :class:`BaseObserver`'s own
    no-op. An override, an attribute set on the instance and a
    duck-typed observer all hear -- one that lacks the hook still fails
    at the first emission, not silently.
    """
    bound = getattr(obs, hook, None)
    if getattr(bound, "__func__", None) is not getattr(BaseObserver, hook):
        return True
    # The batched hook's default fans out to the scalar one.
    return hook == "on_slots_reclaimed" and hears(obs, "on_slot_reclaimed")

