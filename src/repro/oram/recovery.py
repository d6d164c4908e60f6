"""Robustness policy for the secure data path.

:class:`RobustnessConfig` is the single knob block that turns the
dormant integrity machinery into an *active* recovery ladder (see
docs/robustness.md):

1. **Bounded retry with exponential backoff** for transient backend
   faults (:class:`TransientBackendError`). Each retry charges
   ``BACKOFF_BASE_NS * BACKOFF_FACTOR ** (attempt - 1)`` of stall time
   to the current protocol operation.
2. **Quarantine-and-rebuild** for persistent corruption: a bucket whose
   slot fails MAC or Merkle verification is quarantined and force-
   reshuffled during the next maintenance window; interim reads of its
   blocks are served from the stash payload cache when possible.

The config is deliberately a frozen dataclass: it is embedded in
simulation results and campaign reports, and a run's policy must not
drift mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Stall charged to the operation by the first retry of a transient
#: fault; each further retry multiplies it by ``BACKOFF_FACTOR``.
BACKOFF_BASE_NS = 200.0
BACKOFF_FACTOR = 2.0


class TransientBackendError(RuntimeError):
    """The backend is momentarily unavailable; the access may be retried."""


@dataclass(frozen=True)
class RobustnessConfig:
    """Recovery policy for one ORAM instance.

    ``integrity``     -- build the bucket Merkle tree, verify on open and
                         verify the whole path's hash chain after every
                         readPath metadata fetch (catches dropped writes
                         on slots the access never opens);
    ``retry_budget``  -- transient-fault retries per open before the
                         fault is escalated to quarantine.

    Quarantine-and-rebuild is always on (``to_dict`` still records it).
    """

    integrity: bool = False
    retry_budget: int = 3

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget}")

    def to_dict(self) -> Dict[str, Any]:
        return {"integrity": self.integrity, "verify_paths": True,
                "retry_budget": self.retry_budget,
                "backoff_base_ns": BACKOFF_BASE_NS,
                "backoff_factor": BACKOFF_FACTOR,
                "quarantine": True}
