"""``repro.telemetry``: op-span tracing, state snapshots, progress output.

The observability layer of the simulator:

- :class:`Telemetry` -- one run's handle: span list, snapshot stream,
  Chrome trace-event + JSONL outputs (see :mod:`repro.telemetry.handle`);
- :class:`SloEngine` -- windowed objectives over a served completion
  stream (:mod:`repro.telemetry.slo`);
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

from repro.telemetry.ops import OpsSampler
from repro.telemetry.fleet import (
    ShardFragment,
    assign_lanes,
    control_instants,
    fleet_trace_doc,
    mint_trace_id,
    request_trace_doc,
)
from repro.telemetry.handle import Telemetry
from repro.telemetry.progress import quiet, stderr_progress
from repro.telemetry.slo import SloEngine, SloRule, default_slo_rules, fold_completions
from repro.telemetry.spans import Process, trace_doc, write_trace
from repro.telemetry.view import load_stream, render_stream

__all__ = [
    "OpsSampler",
    "Process",
    "ShardFragment",
    "SloEngine",
    "SloRule",
    "Telemetry",
    "assign_lanes",
    "control_instants",
    "default_slo_rules",
    "fleet_trace_doc",
    "fold_completions",
    "load_stream",
    "mint_trace_id",
    "quiet",
    "render_stream",
    "request_trace_doc",
    "stderr_progress",
    "trace_doc",
    "write_trace",
]
