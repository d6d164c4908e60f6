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
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

FAULT_KINDS = ("bit_flip", "replay", "dropped_write", "unavailable")

#: Kinds that tamper with sealed state and whose detection is
#: synchronous at the injection site -- the 100%-detection CI gates
#: quantify over these. ``dropped_write`` detection is lazy (a later
#: read of the bucket) and ``unavailable`` is overt (the error *is* the
#: fault), so neither belongs in the gate.
TAMPER_KINDS = ("bit_flip", "replay")

#: Kinds injected on ``open_slot`` (read-side), in priority order: at
#: most one fault fires per operation.
OPEN_KINDS = ("unavailable", "bit_flip", "replay")

#: Kinds injected on a seal (write-side).
SEAL_KINDS = ("dropped_write",)


def _unit(seed: int, tag: str, op: int, bucket: int, slot: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed by the full tuple."""
    h = hashlib.blake2b(
        f"{seed}|{tag}|{op}|{bucket}|{slot}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(h, "big") / 2.0 ** 64


@lru_cache(maxsize=256)
def _prefix(seed: int, kind: str) -> Any:
    """BLAKE2b fed ``f"{seed}|{kind}|"``, the head of ``_unit``'s bytes:
    made once per process, only ever copied."""
    return hashlib.blake2b(f"{seed}|{kind}|".encode(), digest_size=8)


def strike(primed: Sequence[Tuple[str, Any, float]], op: int, bucket: int,
           slot: int) -> Optional[str]:
    """The first kind of :meth:`FaultPlan.primed` firing on this op:
    where ``_unit(seed, kind, op, bucket, slot) < rate``, its bytes'
    tail hashed on a copy of the kind's primed state."""
    suffix = f"{op}|{bucket}|{slot}".encode()
    for kind, state, rate in primed:
        h = state.copy()
        h.update(suffix)
        if int.from_bytes(h.digest(), "big") / 2.0 ** 64 < rate:
            return kind
    return None


@dataclass(frozen=True)
class FaultPlan:
    """Which operations fail, decided by hashing, never by state.

    ``rates`` maps a fault kind to its per-eligible-operation
    probability; kinds absent from the mapping never fire. Warm-fill is
    kept fault-free by the wrapper, which its owner arms only after it.
    """

    seed: int = 0
    rates: Mapping[str, float] = field(default_factory=dict)
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

    def primed(self, kinds: Sequence[str]) -> List[Tuple[str, Any, float]]:
        """``(kind, primed state, rate)`` for each of ``kinds`` that can
        fire, in order, for :func:`strike`. The states live in a
        per-process cache, so nothing unpicklable rides a plan or its
        holder."""
        return [(kind, _prefix(self.seed, kind), self.rates[kind])
                for kind in kinds if self.rates.get(kind, 0.0) > 0.0]

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
            "start_op": 0,
            "max_outage_ops": self.max_outage_ops,
        }
