"""Performance-tracking harness (``python -m repro perf``).

This package turns the simulator into its own benchmark subject: a
fixed, seed-pinned matrix of (scheme x trace) cells is replayed through
:func:`repro.sim.runner.run_sims`, and each cell's wall time,
throughput (accesses/sec) and deterministic simulation metrics are
written to a machine-readable JSON report (``BENCH_perf.json``).

- :mod:`repro.perf.schema` declares the report format, its
  throughput-regression gate (the CI gate) and its text rendering as
  a :class:`repro.report.ReportSpec`; the shared kernel validates,
  keys, compares and renders;
- :mod:`repro.perf.runner` runs the matrix (full or ``--smoke``).

Simulation metrics (``cells[*].sim``) are bit-deterministic for a given
(code version, config, seed); wall-clock metrics (``wall_s``,
``accesses_per_s``) vary with the host. Comparisons therefore treat
only throughput as a gate and the ``sim`` block as an identity check.
"""

from repro.perf.runner import PerfConfig, full_config, run_perf, smoke_config
from repro.perf.schema import compare_reports, validate_report
from repro.report import SCHEMA_VERSION

__all__ = [
    "PerfConfig",
    "SCHEMA_VERSION",
    "compare_reports",
    "full_config",
    "run_perf",
    "smoke_config",
    "validate_report",
]
