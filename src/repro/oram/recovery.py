"""Robustness policy for the secure data path.

:class:`RobustnessConfig` is the single knob block that turns the
dormant integrity machinery into an *active* recovery ladder (see
docs/robustness.md):

1. **Bounded retry with exponential backoff** for transient backend
   faults (:class:`TransientBackendError`). Each retry charges
   ``backoff_base_ns * backoff_factor ** (attempt - 1)`` of stall time
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

from dataclasses import asdict, dataclass
from typing import Any, Dict


class TransientBackendError(RuntimeError):
    """The backend is momentarily unavailable; the access may be retried."""


@dataclass(frozen=True)
class RobustnessConfig:
    """Recovery policy for one ORAM instance.

    ``integrity``     -- build the bucket Merkle tree and verify on open;
    ``verify_paths``  -- additionally verify the whole path's hash chain
                         after every readPath metadata fetch (catches
                         dropped writes on slots the access never opens);
    ``retry_budget``  -- transient-fault retries per open before the
                         fault is escalated to quarantine;
    ``backoff_base_ns`` / ``backoff_factor`` -- exponential backoff
                         charged to the operation's timing;
    ``quarantine``    -- enable quarantine-and-rebuild; when off, every
                         persistent fault is counted unrecovered.
    """

    integrity: bool = False
    verify_paths: bool = True
    retry_budget: int = 3
    backoff_base_ns: float = 200.0
    backoff_factor: float = 2.0
    quarantine: bool = True

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget}")
        if self.backoff_base_ns < 0:
            raise ValueError("backoff_base_ns must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)
