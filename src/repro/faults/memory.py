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

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.crypto.auth import AuthenticationError
from repro.crypto.integrity import IntegrityError
from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.oram.datastore import SlotSnapshot
from repro.oram.recovery import TransientBackendError

SlotKey = Tuple[int, int]


class FaultyMemory:
    """Deterministic adversary-in-the-middle for the sealed data path."""

    def __init__(self, inner: Any, plan: FaultPlan, armed: bool = True) -> None:
        self.inner = inner
        self.plan = plan
        self.armed = armed
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

    def seal_slot(self, bucket: int, slot: int, plaintext: bytes) -> None:
        op = self.op_index
        self.op_index += 1
        key = (bucket, slot)
        prev: Optional[SlotSnapshot] = None
        if (bucket, slot) in self.inner._tags:
            prev = self.inner.snapshot_slot(bucket, slot)
        self.inner.seal_slot(bucket, slot, plaintext)
        if key in self._outstanding_drops:
            # The reseal overwrote the dropped write before anything
            # could notice it -- the fault is masked, not detected.
            del self._outstanding_drops[key]
            self.masked_drops += 1
        if prev is not None:
            self._history[key] = prev
        if not self.armed or prev is None:
            return
        if self.plan.pick_seal_fault(op, bucket, slot) == "dropped_write":
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

    def seal_many(self, items: Any) -> None:
        # Must be implemented here, not left to __getattr__: the
        # passthrough would hand the batch to the inner store and the
        # whole reshuffle write-back would escape fault injection.
        # Looping our own seal_slot/seal_dummy keeps the per-seal op
        # indices, injections and RNG draws identical to scalar calls.
        for bucket, slot, plaintext in items:
            if plaintext is None:
                self.seal_dummy(bucket, slot)
            else:
                self.seal_slot(bucket, slot, plaintext)

    # ------------------------------------------------------------- opening

    def open_many(self, slots: Any) -> Iterator[Any]:
        # Explicit for the same reason as seal_many. Lazy on purpose:
        # each slot is opened (and takes its op index) only when the
        # caller asks for its outcome, so a caller that retries a
        # transient failure through open_slot before moving on sees
        # the op sequence of the scalar loop.
        for bucket, slot in slots:
            try:
                yield self.open_slot(bucket, slot)
            except (TransientBackendError, AuthenticationError,
                    IntegrityError) as exc:
                yield exc

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
            credited = [
                k for k in self._outstanding_drops if k[0] == bucket
            ]
            for k in credited:
                del self._outstanding_drops[k]
                self.detected["dropped_write"] += 1
            raise

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
