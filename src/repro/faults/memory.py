"""Fault-injecting wrapper over the encrypted tree store.

:class:`FaultyMemory` sits between the Ring ORAM controller and an
:class:`~repro.oram.datastore.EncryptedTreeStore` and plays the
*untrusted memory* of the threat model: on operations selected by a
:class:`~repro.faults.plan.FaultPlan` it corrupts what the store would
have returned -- then lets the store's own MAC/Merkle machinery (and
the controller's recovery ladder) deal with the damage.

Injection happens at the wrapper so that *detection attribution* is
exact: when the inner store raises on an operation the wrapper just
corrupted, the detection is credited to that fault kind. Faults the
protocol never observes are tracked too: a dropped write overwritten
by a later seal is *masked*; one never touched again is *latent*.

With every rate at zero the wrapper is a bit-identical passthrough:
it draws no randomness and performs exactly the inner store's work.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.crypto.auth import AuthenticationError
from repro.crypto.integrity import IntegrityError
from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.oram.datastore import SlotSnapshot
from repro.oram.recovery import TransientBackendError

SlotKey = Tuple[int, int]


class FaultyMemory:
    """Deterministic adversary-in-the-middle for the sealed data path."""

    def __init__(self, inner: Any, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        # Disarmed until its owner sets ``armed`` (after warm-fill).
        self.armed = False
        self.op_index = 0
        self.injected: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self.detected: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self.undetected: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self.masked_drops = 0
        # Previous sealed triple per slot -- replay ammunition.
        self._history: Dict[SlotKey, SlotSnapshot] = {}
        # Dropped writes whose corruption is still in memory.
        self._outstanding_drops: Dict[SlotKey, int] = {}
        # Active outage: (slot key, remaining raises).
        self._outage: Optional[Tuple[SlotKey, int]] = None

    def __getattr__(self, name: str) -> Any:
        # Everything not intercepted (verify_path, integrity, counters,
        # layout, attack hooks, ...) passes straight through. Dunder and
        # private lookups must fail normally or pickling recurses.
        if name.startswith("_") or name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    # ------------------------------------------------------------- sealing

    def _snapshot(self, key: SlotKey) -> Optional[SlotSnapshot]:
        """The sealed triple a seal of ``key`` is about to overwrite."""
        return self.inner.snapshot_slot(*key) if self.inner.is_sealed(*key) else None

    def _drops(self, op: int, key: SlotKey, prev: Optional[SlotSnapshot]) -> bool:
        """Whether the plan drops this seal (a first write cannot be:
        there is no older triple to survive it)."""
        return (self.armed and prev is not None
                and self.plan.pick_seal_fault(op, *key) == "dropped_write")

    def _sealed_over(self, key: SlotKey, prev: Optional[SlotSnapshot]) -> None:
        """Ledger work once the store has resealed ``key`` over ``prev``."""
        if key in self._outstanding_drops:
            # The reseal overwrote the dropped write before anything
            # could notice it -- the fault is masked, not detected.
            del self._outstanding_drops[key]
            self.masked_drops += 1
        if prev is not None:
            self._history[key] = prev

    def seal_slot(self, bucket: int, slot: int, plaintext: bytes) -> None:
        op = self.op_index
        self.op_index += 1
        key = (bucket, slot)
        prev = self._snapshot(key)
        self.inner.seal_slot(bucket, slot, plaintext)
        self._sealed_over(key, prev)
        if self._drops(op, key, prev):
            # The write never lands: old ciphertext + tag survive in
            # memory while the trusted version and the Merkle content
            # digest already moved on.
            self.inner.restore_slot(bucket, slot, prev)
            self.injected["dropped_write"] += 1
            self._outstanding_drops[key] = op

    def seal_dummy(self, bucket: int, slot: int) -> None:
        # Routed through our own seal_slot (not the inner one) so dummy
        # writes are injectable too; the plaintext comes from the inner
        # RNG exactly as an unwrapped seal_dummy would draw it.
        self.seal_slot(bucket, slot, self.inner._dummy_plaintext())

    def seal_many(
        self, items: Sequence[Tuple[int, int, Optional[bytes]]]
    ) -> None:
        """Seal a batch in order, cut only where the plan strikes.

        Must be implemented here, not left to ``__getattr__``: the
        passthrough would hand the whole batch to the inner store and
        a reshuffle's write-back would escape fault injection. The plan
        is a pure function of ``(seed, kind, op, bucket, slot)``, so
        from ``op_index`` the wrapper can tell which seals ahead are
        fault-free; each such run goes to the store's own ``seal_many``
        (one Merkle rehash per bucket) and a write the
        plan drops goes through :meth:`seal_slot`. Op indices, ledgers,
        dummy-filler draws and the store's end state are those of
        ``seal_slot``/``seal_dummy`` item by item.
        """
        start = 0
        while start < len(items):
            # slot -> the triple this run overwrites. The run stops
            # before a dropped write (the bucket's leaf has to be
            # digested with that write's tag before it is undone, and
            # later seals of the bucket digest the stale one) and
            # before a slot it already holds (a repeat's snapshot, and
            # whether it can be dropped at all, depend on the seal
            # before it).
            prevs: Dict[SlotKey, Optional[SlotSnapshot]] = {}
            for i in range(start, len(items)):
                bucket, slot, _ = items[i]
                key = (bucket, slot)
                if key in prevs:
                    break
                prev = self._snapshot(key)
                if self._drops(self.op_index + i - start, key, prev):
                    break
                prevs[key] = prev
            if prevs:
                end = start + len(prevs)
                self.op_index += len(prevs)
                self.inner.seal_many(items[start:end])
                for key, prev in prevs.items():
                    self._sealed_over(key, prev)
                start = end
            else:
                bucket, slot, plaintext = items[start]
                if plaintext is None:
                    self.seal_dummy(bucket, slot)
                else:
                    self.seal_slot(bucket, slot, plaintext)
                start += 1

    # ------------------------------------------------------------- opening

    def _struck(self, op: int, key: SlotKey) -> bool:
        """Whether this open may do anything but what the store does:
        an outage holds the slot, the plan strikes the op, or the slot
        was never sealed (the ``KeyError`` must surface at this op)."""
        return (
            (self._outage is not None and self._outage[0] == key)
            or not self.inner.is_sealed(*key)
            or (self.armed
                and self.plan.pick_open_fault(op, *key) is not None)
        )

    def open_many(self, slots: Sequence[SlotKey]) -> Iterator[Any]:
        """Open a batch in order, cut only where the plan strikes.

        Explicit for the same reason as ``seal_many``, and cut the same
        way: the fault-free run ahead of ``op_index`` goes to the
        store's ``open_many`` (one Merkle check per bucket), a struck
        slot through :meth:`open_slot`.
        Lazy on purpose: only a struck open can come back as the
        ``TransientBackendError`` a caller answers with retry
        ``open_slot`` calls of its own, so a run is planned when the
        caller asks for its first outcome -- after the retries the
        outcome before it caused -- and every op keeps the index the
        scalar loop gives it.
        """
        start = 0
        while start < len(slots):
            end = start
            while end < len(slots) and not self._struck(
                self.op_index + end - start, slots[end]
            ):
                end += 1
            if end > start:
                run = slots[start:end]
                self.op_index += len(run)
                for (bucket, _), outcome in zip(run, self.inner.open_many(run)):
                    if isinstance(outcome, (AuthenticationError, IntegrityError)):
                        self._credit_drops(bucket)
                    yield outcome
                start = end
            else:
                try:
                    yield self.open_slot(*slots[start])
                except (TransientBackendError, AuthenticationError,
                        IntegrityError) as exc:
                    yield exc
                start += 1

    def open_slot(self, bucket: int, slot: int) -> bytes:
        op = self.op_index
        self.op_index += 1
        key = (bucket, slot)
        if self._outage is not None and self._outage[0] == key:
            remaining = self._outage[1]
            if remaining > 0:
                self._outage = (key, remaining - 1)
                raise TransientBackendError(
                    f"backend unavailable for slot {key} (outage ongoing)"
                )
            self._outage = None
        kind = self.plan.pick_open_fault(op, bucket, slot) if self.armed else None
        if kind == "unavailable":
            self.injected["unavailable"] += 1
            self.detected["unavailable"] += 1   # overt: the error IS the fault
            remaining = self.plan.outage_ops(op, bucket, slot)
            if remaining > 1:
                self._outage = (key, remaining - 1)
            raise TransientBackendError(
                f"backend unavailable for slot {key} (injected at op {op})"
            )
        if kind == "bit_flip":
            self.injected["bit_flip"] += 1
            self.inner.tamper_payload(
                bucket, slot,
                flip_byte=self.plan.flip_byte(op, bucket, slot,
                                              self.inner.cfg.block_bytes),
            )
            return self._open_expecting(bucket, slot, "bit_flip")
        if kind == "replay" and key in self._history:
            self.injected["replay"] += 1
            self.inner.restore_slot(bucket, slot, self._history[key],
                                    restore_version=True, rehash=True)
            return self._open_expecting(bucket, slot, "replay")
        return self._open_plain(bucket, slot)

    def _open_expecting(self, bucket: int, slot: int, kind: str) -> bytes:
        """Open a slot we just corrupted; credit the detection (or not)."""
        try:
            value = self.inner.open_slot(bucket, slot)
        except (AuthenticationError, IntegrityError):
            self.detected[kind] += 1
            raise
        # The corruption went through: a successful replay returns the
        # stale plaintext, a missed bit flip returns garbage.
        self.undetected[kind] += 1
        return value

    def _open_plain(self, bucket: int, slot: int) -> bytes:
        """Open with no fresh fault; older dropped writes may surface."""
        try:
            return self.inner.open_slot(bucket, slot)
        except (AuthenticationError, IntegrityError):
            self._credit_drops(bucket)
            raise

    def _credit_drops(self, bucket: int) -> None:
        """An unstruck open of ``bucket`` failed: its dropped writes
        have surfaced."""
        for key in [k for k in self._outstanding_drops if k[0] == bucket]:
            del self._outstanding_drops[key]
            self.detected["dropped_write"] += 1

    # ------------------------------------------------------------- queries

    @property
    def latent_drops(self) -> int:
        """Dropped writes still sitting undetected in memory."""
        return len(self._outstanding_drops)

    def summary(self) -> Dict[str, Any]:
        """Deterministic injection/detection ledger for reports."""
        return {
            "ops": self.op_index,
            "injected": {k: self.injected[k] for k in FAULT_KINDS},
            "detected": {k: self.detected[k] for k in FAULT_KINDS},
            "undetected": {k: self.undetected[k] for k in FAULT_KINDS},
            "masked_drops": self.masked_drops,
            "latent_drops": self.latent_drops,
        }
