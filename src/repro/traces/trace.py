"""Trace containers.

A :class:`Trace` is a finite sequence of :class:`TraceRequest` items
(block-granular reads/writes into the protected address space) plus the
workload metadata the timing model needs: the LLC miss rate (MPKI)
determines how many CPU nanoseconds elapse between consecutive ORAM
accesses -- low-MPKI benchmarks hide more of the ORAM latency, which is
why the paper's per-benchmark slowdowns differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

#: Simulated core: 4-wide fetch (Table III) at 3.2 GHz.
FETCH_WIDTH = 4
CORE_GHZ = 3.2


@dataclass(frozen=True)
class TraceRequest:
    """One LLC-miss memory request at 64B block granularity."""

    block: int
    write: bool


@dataclass
class Trace:
    """A named, replayable request sequence."""

    name: str
    requests: List[TraceRequest]
    read_mpki: float
    write_mpki: float
    suite: str = "synthetic"

    def __post_init__(self) -> None:
        if self.read_mpki < 0 or self.write_mpki < 0:
            raise ValueError("MPKI values must be non-negative")
        if self.total_mpki <= 0:
            raise ValueError(f"trace {self.name}: total MPKI must be positive")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[TraceRequest]:
        return iter(self.requests)

    @property
    def total_mpki(self) -> float:
        return self.read_mpki + self.write_mpki

    @property
    def instructions_per_access(self) -> float:
        """Committed instructions between consecutive LLC misses."""
        return 1000.0 / self.total_mpki

    @property
    def cpu_gap_ns(self) -> float:
        """CPU time between consecutive ORAM accesses.

        The core retires ``FETCH_WIDTH`` instructions per cycle at
        ``CORE_GHZ``; the window between misses is pure compute.
        """
        return self.instructions_per_access / (FETCH_WIDTH * CORE_GHZ)

    def truncated(self, n: int) -> "Trace":
        """A copy holding only the first ``n`` requests."""
        return Trace(
            name=self.name,
            requests=self.requests[:n],
            read_mpki=self.read_mpki,
            write_mpki=self.write_mpki,
            suite=self.suite,
        )
