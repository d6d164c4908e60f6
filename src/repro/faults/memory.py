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
it draws no randomness and performs exactly the inner store's work,
plus the capture of each seal run into the store's replay image.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.crypto.auth import AuthenticationError
from repro.crypto.integrity import IntegrityError
from repro.faults.plan import FAULT_KINDS, OPEN_KINDS, SEAL_KINDS, FaultPlan, strike
from repro.oram.recovery import TransientBackendError

SlotKey = Tuple[int, int]


class FaultyMemory:
    """Deterministic adversary-in-the-middle for the sealed data path;
    its replay ammunition is the store's replay image (``previous``)."""

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
        # Dropped writes whose corruption is still in memory.
        self._outstanding_drops: Dict[SlotKey, int] = {}
        # Active outage: (slot key, remaining raises).
        self._outage: Optional[Tuple[SlotKey, int]] = None

    def __getattr__(self, name: str) -> Any:
        # Everything not intercepted (integrity, counters, layout,
        # attack hooks, ...) passes straight through. Dunder and
        # private lookups must fail normally or pickling recurses.
        if name.startswith("_") or name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def verify_path(self, leaf: int) -> None:
        # Once per readPath: not worth a trip through __getattr__.
        self.inner.verify_path(leaf)

    # ------------------------------------------------------------- sealing

    def seal_many(
        self, items: Sequence[Tuple[int, int, Optional[bytes]]]
    ) -> None:
        """Seal a batch in order, cut only where the plan strikes.

        Must be implemented here, not left to ``__getattr__``: the
        passthrough would hand the whole batch to the inner store and
        a reshuffle's write-back would escape fault injection. The plan
        is a pure function of ``(seed, kind, op, bucket, slot)``, so
        from ``op_index`` the wrapper can tell where the seals ahead
        are dropped; each run up to one is captured into the replay
        image in one pass and goes to the store's own ``seal_many``
        (one Merkle rehash per bucket). Op indices, ledgers, replay
        image, dummy-filler draws and the store's end state are those
        of sealing item by item.
        """
        inner, drops = self.inner, self._outstanding_drops
        drop = self.plan.primed(SEAL_KINDS) if self.armed else ()
        sealed, width = inner.sealed_mask()
        start, n = 0, len(items)
        while start < n:
            # A run ends before a slot it already holds (the repeat is
            # captured after the seal before it) and with a dropped
            # write: the bucket's leaf is digested with that write's
            # tag before it is undone, and later seals of the bucket
            # digest the stale one. A first write cannot be dropped:
            # no older triple survives it.
            op, end, seen, dropped = self.op_index, start, set(), None
            while end < n and not dropped:
                bucket, slot, _ = items[end]
                if (bucket, slot) in seen:
                    break
                seen.add((bucket, slot))
                dropped = drop and sealed[bucket * width + slot] and strike(
                    drop, op, bucket, slot)
                op += 1
                end += 1
            run = items[start:end]
            self.op_index, start = op, end
            inner.capture(run)
            inner.seal_many(run)
            if drops:
                for bucket, slot, _ in run:
                    if drops.pop((bucket, slot), None) is not None:
                        # Resealed before anything could notice the
                        # dropped write: masked, not detected.
                        self.masked_drops += 1
            if dropped:
                # The write never lands: old ciphertext + tag survive in
                # memory while the trusted version and the Merkle
                # content digest already moved on.
                bucket, slot, _ = run[-1]
                inner.restore_slot(bucket, slot, inner.previous(bucket, slot))
                self.injected["dropped_write"] += 1
                drops[(bucket, slot)] = op - 1

    # ------------------------------------------------------------- opening

    def open_many(self, slots: Sequence[SlotKey]) -> Iterator[Any]:
        """Open a batch in order, cut only where the plan strikes.

        Explicit for the same reason as ``seal_many``, and cut the same
        way: the fault-free run ahead of ``op_index`` goes to the
        store's ``open_many`` (one Merkle check for the run), a struck
        slot through :meth:`open_slot`. A slot is struck when an outage
        holds it, when it was never sealed (the ``KeyError`` must
        surface at its op) or when an armed kind fires on it.
        Lazy on purpose: only a struck open can come back as the
        ``TransientBackendError`` a caller answers with retry
        ``open_slot`` calls of its own, so a run is planned when the
        caller asks for its first outcome -- after the retries the
        outcome before it caused -- and every op keeps the index the
        scalar loop gives it.
        """
        inner = self.inner
        sealed, width = inner.sealed_mask()
        start, n = 0, len(slots)
        while start < n:
            outage = self._outage[0] if self._outage is not None else None
            kinds = self.plan.primed(OPEN_KINDS) if self.armed else ()
            op, end = self.op_index, start
            while end < n:
                key = slots[end]
                bucket, slot = key
                if key == outage or not sealed[bucket * width + slot] or (
                        kinds and strike(kinds, op, bucket, slot) is not None):
                    break
                op += 1
                end += 1
            if end > start:
                run = slots[start:end]
                self.op_index = op
                for (bucket, _), outcome in zip(run, inner.open_many(run)):
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
        kind = (strike(self.plan.primed(OPEN_KINDS), op, bucket, slot)
                if self.armed else None)
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
            return self._open(bucket, slot, "bit_flip")
        ammo = self.inner.previous(bucket, slot) if kind == "replay" else None
        if ammo is not None:
            self.injected["replay"] += 1
            self.inner.restore_slot(bucket, slot, ammo,
                                    restore_version=True, rehash=True)
            return self._open(bucket, slot, "replay")
        return self._open(bucket, slot)

    def _open(self, bucket: int, slot: int, kind: Optional[str] = None) -> bytes:
        """Open a slot, just corrupted by ``kind`` (credit its detection
        or miss) or by nothing fresh (older dropped writes may surface)."""
        try:
            value = self.inner.open_slot(bucket, slot)
        except (AuthenticationError, IntegrityError):
            if kind is None:
                self._credit_drops(bucket)
            else:
                self.detected[kind] += 1
            raise
        if kind is not None:
            # The corruption went through: a successful replay returns
            # the stale plaintext, a missed bit flip returns garbage.
            self.undetected[kind] += 1
        return value

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
