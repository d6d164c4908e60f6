"""Performance-tracking harness (``python -m repro perf``).

This package turns the simulator into its own benchmark subject: a
fixed, seed-pinned matrix of (scheme x trace) cells is replayed through
:func:`repro.sim.runner.run_sims`, and each cell's deterministic
simulation metrics are written to a machine-readable JSON report
(``BENCH_perf.json``).

- :mod:`repro.perf.schema` declares the report format, its
  simulated-time regression gate (the CI gate) and its text rendering
  as a :class:`repro.report.ReportSpec`; the shared kernel validates,
  keys, compares and renders;
- :mod:`repro.perf.runner` runs the matrix (full or ``--smoke``).

Every metric (``cells[*].sim``) is bit-deterministic for a given
(code version, config, seed): the compare gate reads simulated DRAM
time per access, never the host clock. Host speed is measured by the
end-to-end benchmark (``benchmarks/e2e``) alone.
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
