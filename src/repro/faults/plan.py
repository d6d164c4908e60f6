"""Seed-pinned fault plans.

A :class:`FaultPlan` decides, for every wrapper operation the
:class:`~repro.faults.memory.FaultyMemory` performs, whether a fault
fires and with what parameters. Decisions are *stateless*: each is a
pure function of ``(seed, kind, op index, bucket, slot)`` hashed
through BLAKE2b, so a campaign is reproducible across processes,
platforms and checkpoint/resume boundaries -- nothing about the draw
depends on Python's RNG state or on how many faults fired before.

Fault kinds (the taxonomy of docs/robustness.md):

- ``bit_flip``      -- one ciphertext byte is flipped on a read;
- ``replay``        -- a stale but internally consistent (ciphertext,
                       tag, version) triple is served, with the Merkle
                       chain consistently rebuilt (strongest replay);
- ``dropped_write`` -- a seal's bytes never reach memory: the previous
                       ciphertext + tag survive;
- ``unavailable``   -- the backend refuses the access for a bounded
                       number of attempts (transient outage).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

FAULT_KINDS = ("bit_flip", "replay", "dropped_write", "unavailable")

#: Kinds that tamper with sealed state and whose detection is
#: synchronous at the injection site -- the 100%-detection CI gates
#: quantify over these. ``dropped_write`` detection is lazy (a later
#: read of the bucket) and ``unavailable`` is overt (the error *is* the
#: fault), so neither belongs in the gate.
TAMPER_KINDS = ("bit_flip", "replay")

#: Kinds injected on ``open_slot`` (read-side), in priority order: at
#: most one fault fires per operation.
_OPEN_KINDS = ("unavailable", "bit_flip", "replay")


def _unit(seed: int, tag: str, op: int, bucket: int, slot: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed by the full tuple."""
    h = hashlib.blake2b(
        f"{seed}|{tag}|{op}|{bucket}|{slot}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(h, "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultPlan:
    """Which operations fail, decided by hashing, never by state.

    ``rates`` maps a fault kind to its per-eligible-operation
    probability; kinds absent from the mapping never fire. ``start_op``
    suppresses injection for the first operations (e.g. warm-fill).
    """

    seed: int = 0
    rates: Mapping[str, float] = field(default_factory=dict)
    start_op: int = 0
    max_outage_ops: int = 2

    def __post_init__(self) -> None:
        for kind, rate in self.rates.items():
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} must be in [0, 1], got {rate}")
        if self.max_outage_ops < 1:
            raise ValueError("max_outage_ops must be >= 1")
        # Freeze the mapping so plans are hashable/immutable in spirit.
        object.__setattr__(self, "rates", dict(self.rates))

    # ------------------------------------------------------------- queries

    @property
    def any_enabled(self) -> bool:
        return any(rate > 0.0 for rate in self.rates.values())

    def _fires(self, kind: str, op: int, bucket: int, slot: int) -> bool:
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0 or op < self.start_op:
            return False
        return _unit(self.seed, kind, op, bucket, slot) < rate

    def pick_open_fault(self, op: int, bucket: int, slot: int) -> Optional[str]:
        """The fault (if any) striking this ``open_slot`` operation."""
        for kind in _OPEN_KINDS:
            if self._fires(kind, op, bucket, slot):
                return kind
        return None

    def pick_seal_fault(self, op: int, bucket: int, slot: int) -> Optional[str]:
        """The fault (if any) striking this ``seal_slot`` operation."""
        if self._fires("dropped_write", op, bucket, slot):
            return "dropped_write"
        return None

    def outage_ops(self, op: int, bucket: int, slot: int) -> int:
        """How many consecutive attempts an outage swallows (>= 1)."""
        draw = _unit(self.seed, "outage_len", op, bucket, slot)
        return 1 + int(draw * self.max_outage_ops)

    def flip_byte(self, op: int, bucket: int, slot: int, block_bytes: int) -> int:
        """Which ciphertext byte a bit flip corrupts."""
        draw = _unit(self.seed, "flip_byte", op, bucket, slot)
        return int(draw * block_bytes) % block_bytes

    # ----------------------------------------------------------- serialize

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rates": dict(sorted(self.rates.items())),
            "start_op": self.start_op,
            "max_outage_ops": self.max_outage_ops,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            rates=dict(data.get("rates", {})),
            start_op=int(data.get("start_op", 0)),
            max_outage_ops=int(data.get("max_outage_ops", 2)),
        )
