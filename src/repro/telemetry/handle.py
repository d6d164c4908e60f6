"""The :class:`Telemetry` handle: one run's tracing + metrics state.

A ``Telemetry`` object owns a :class:`~repro.telemetry.metrics
.MetricsRegistry`, a span list and (optionally) two output files:

- ``trace_path`` -- Chrome trace-event JSON with one complete event per
  protocol operation (readPath / evictPath / earlyReshuffle / ...),
  stamped in DRAM-model nanoseconds; load it in Perfetto.
- ``metrics_path`` -- a JSONL stream: one ``meta`` line, one
  ``snapshot`` line per periodic capture (stash occupancy, per-level
  DeadQ depth, remote rentals outstanding, reshuffle counts) and one
  final ``summary`` line with the full registry snapshot plus per-op
  span totals.

Telemetry *observes*: attaching it never changes protocol behaviour,
RNG streams or DRAM timing, so a telemetry-on run's
:class:`~repro.sim.results.SimResult` is bit-identical to the same run
with telemetry off. Drivers create the handle, pass it to
:class:`~repro.sim.engine.Simulation`, and ``close()`` it (or use it as
a context manager) once the run finishes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.spans import Process, Span, trace_doc, write_trace


class Telemetry:
    """Tracing + metrics collection for one simulation run."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        metrics_every: int = 100,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if metrics_every < 0:
            raise ValueError(f"metrics_every must be >= 0, got {metrics_every}")
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.metrics_every = metrics_every
        self.meta: Dict[str, Any] = dict(meta or {})
        self.registry = MetricsRegistry()
        #: The run's one trace process: the sink's op spans on tid 0,
        #: plus any tracks a producer adds (the pipelined sink's lanes).
        self.process = Process(0, "repro-sim")
        self.spans: List[Span] = self.process.spans
        self.snapshots = 0
        self._span_counters: Dict[str, Any] = {}
        self._span_hists: Dict[str, Histogram] = {}
        self._metrics_file: Optional[Any] = None
        self._closed = False

    # ------------------------------------------------------------ plumbing

    def record_span(self, name: str, start_ns: float, dur_ns: float) -> None:
        """One finished protocol operation (called by the sink)."""
        self.spans.append((name, start_ns, dur_ns))
        c = self._span_counters.get(name)
        if c is None:
            c = self._span_counters[name] = self.registry.counter(f"ops.{name}")
            self._span_hists[name] = self.registry.histogram(f"op_ns.{name}")
        c.inc()
        self._span_hists[name].observe(dur_ns)

    # ------------------------------------------------------------ snapshots

    def record_snapshot(self, record: Dict[str, Any]) -> None:
        """Capture one periodic state snapshot into gauges + the stream.

        ``record`` carries the simulation-state fields (built by
        :meth:`Simulation.telemetry_record`); the well-known ones are
        mirrored into registry gauges so the final summary carries
        their last/max values even without parsing the stream.
        """
        reg = self.registry
        for key, gauge_name in (
            ("stash_occupancy", "stash.occupancy"),
            ("stash_peak", "stash.peak"),
            ("rentals_outstanding", "rentals.outstanding"),
            ("reshuffles_total", "reshuffles.total"),
            ("evictions", "evictions.total"),
        ):
            if key in record:
                reg.gauge(gauge_name).set(record[key])
        for lv, depth in record.get("deadq_depth", {}).items():
            reg.gauge(f"deadq.depth.L{lv}").set(depth)
        if "dram_stalled_ns" in record:
            reg.gauge("dram.stalled_ns").set(record["dram_stalled_ns"])
        dram = record.get("dram")
        if dram:
            busy = dram.get("channel_busy_ns", ())
            for ch, ns in enumerate(busy):
                reg.gauge(f"dram.channel_busy_ns.ch{ch}").set(ns)
            if busy:
                reg.gauge("dram.channel_busy_ns.max").set(max(busy))
            for key in ("bank_busy_peak_ns", "queue_depth_peak",
                        "queue_depth_mean"):
                if key in dram:
                    reg.gauge(f"dram.{key}").set(dram[key])
        for name, value in (record.get("pipeline") or {}).items():
            reg.gauge(f"pipeline.{name}").set(value)
        for name, value in record.get("recovery", {}).items():
            reg.gauge(f"recovery.{name}").set(value)
        self.snapshots += 1
        self._write_line({"type": "snapshot", **record})

    # -------------------------------------------------------------- output

    def _write_line(self, record: Dict[str, Any]) -> None:
        if self.metrics_path is None:
            return
        f = self._metrics_file
        if f is None:
            parent = os.path.dirname(self.metrics_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            f = self._metrics_file = open(self.metrics_path, "w")
            json.dump({"type": "meta", **self.meta}, f, sort_keys=True)
            f.write("\n")
        json.dump(record, f, sort_keys=True)
        f.write("\n")

    def span_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-op totals: count and summed duration, sorted by name."""
        out: Dict[str, Dict[str, float]] = {}
        for name, _start, dur in self.spans:
            entry = out.setdefault(name, {"count": 0, "total_ns": 0.0})
            entry["count"] += 1
            entry["total_ns"] += dur
        return {name: out[name] for name in sorted(out)}

    def close(self) -> None:
        """Flush the summary line, the trace file, and close outputs."""
        if self._closed:
            return
        self._closed = True
        self._write_line({
            "type": "summary",
            "snapshots": self.snapshots,
            "spans": self.span_summary(),
            "metrics": self.registry.snapshot(),
        })
        if self._metrics_file is not None:
            self._metrics_file.close()
            self._metrics_file = None
        if self.trace_path is not None:
            write_trace(
                trace_doc([self.process], self.meta), self.trace_path,
                indent=None,
            )
