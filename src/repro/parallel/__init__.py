"""Deterministic parallel execution of independent sweep cells.

Every sweep in this repository -- the perf matrix, the fault-injection
campaign, the paper-figure benchmarks -- is a bag of *cells* that share
no state: each cell derives every random stream from pinned seeds, so
its result is a pure function of its payload. :func:`run_cells` fans
such cells over a process pool (``fork`` on Linux, ``spawn``
elsewhere) and merges the results back in submission order, which
makes the parallel output indistinguishable from the serial one (same entries, same order) while a failed or even
hard-crashed worker costs exactly its own cell.
"""

from repro.parallel.executor import (
    Cell,
    CellResult,
    derive_seed,
    report_progress,
    run_cells,
)

__all__ = [
    "Cell",
    "CellResult",
    "derive_seed",
    "report_progress",
    "run_cells",
]
