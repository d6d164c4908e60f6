"""``repro.telemetry``: op-span tracing, live metrics, progress output.

The observability layer of the simulator:

- :class:`Telemetry` -- one run's handle: span list, metrics registry,
  Chrome trace-event + JSONL outputs (see :mod:`repro.telemetry.handle`);
- :class:`MetricsRegistry` -- counters, gauges and fixed-bucket
  histograms with sorted-name snapshots (:mod:`repro.telemetry.metrics`);
- :func:`trace_doc` / :class:`Process` -- the one Chrome trace builder
  every Perfetto file goes through (:mod:`repro.telemetry.spans`);
- :func:`request_trace_doc` / :func:`fleet_trace_doc` -- the serving
  and fleet layouts it renders (:mod:`repro.telemetry.fleet`);
- :func:`stderr_progress` -- the shared progress callback with the
  ``REPRO_QUIET`` escape hatch (:mod:`repro.telemetry.progress`).

Everything here observes and never steers: attaching telemetry to a
simulation leaves its RNG streams, DRAM timing and ``SimResult``
bit-identical to a bare run.
"""

from repro.telemetry.console import (
    OpsSampler,
    frames_from_stream,
    render_frame,
    render_replay,
    run_console,
)
from repro.telemetry.fleet import (
    ShardFragment,
    assign_lanes,
    control_instants,
    fleet_trace_doc,
    mint_trace_id,
    request_trace_doc,
)
from repro.telemetry.handle import Telemetry
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_time_buckets,
    quantiles_from_snapshot,
)
from repro.telemetry.progress import quiet, stderr_progress
from repro.telemetry.slo import SloEngine, SloRule, default_slo_rules, fold_completions
from repro.telemetry.spans import Process, trace_doc, write_trace
from repro.telemetry.view import load_stream, render_stream

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OpsSampler",
    "Process",
    "ShardFragment",
    "SloEngine",
    "SloRule",
    "Telemetry",
    "assign_lanes",
    "control_instants",
    "default_slo_rules",
    "default_time_buckets",
    "fleet_trace_doc",
    "fold_completions",
    "frames_from_stream",
    "load_stream",
    "mint_trace_id",
    "quantiles_from_snapshot",
    "quiet",
    "render_frame",
    "render_replay",
    "render_stream",
    "request_trace_doc",
    "run_console",
    "stderr_progress",
    "trace_doc",
    "write_trace",
]
