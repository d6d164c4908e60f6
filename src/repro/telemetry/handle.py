"""The :class:`Telemetry` handle: one run's spans and snapshot stream.

A ``Telemetry`` object owns a span list and (optionally) two output
files:

- ``trace_path`` -- Chrome trace-event JSON with one complete event per
  protocol operation (readPath / evictPath / earlyReshuffle / ...),
  stamped in DRAM-model nanoseconds; load it in Perfetto.
- ``metrics_path`` -- a JSONL stream: one ``meta`` line, one
  ``snapshot`` line per periodic capture (stash occupancy, per-level
  DeadQ depth, remote rentals outstanding, reshuffle counts) and one
  final ``summary`` line with each op's span count, total and exact
  p50/p95/p99 (``np.percentile`` over the span list).

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

import numpy as np

from repro.telemetry.spans import Process, Span, trace_doc, write_trace


class Telemetry:
    """Span + snapshot collection for one simulation run."""

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
        #: The run's one trace process: the sink's op spans on tid 0,
        #: plus any tracks a producer adds (the pipelined sink's lanes).
        self.process = Process(0, "repro-sim")
        self.spans: List[Span] = self.process.spans
        self.snapshots = 0
        self._metrics_file: Optional[Any] = None
        self._closed = False

    # ------------------------------------------------------------ plumbing

    def record_span(self, name: str, start_ns: float, dur_ns: float) -> None:
        """One finished protocol operation (called by the sink)."""
        self.spans.append((name, start_ns, dur_ns))

    # ------------------------------------------------------------ snapshots

    def record_snapshot(self, record: Dict[str, Any]) -> None:
        """Count one periodic state snapshot and write it to the stream.

        ``record`` carries the simulation-state fields (built by
        :meth:`Simulation.telemetry_record`).
        """
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
        """Per-op count, summed duration and exact p50/p95/p99, by name."""
        durs: Dict[str, List[float]] = {}
        for name, _start, dur in self.spans:
            durs.setdefault(name, []).append(dur)
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(durs):
            # Left to right, not sum(): Python 3.12's sum() compensates
            # float rounding, and total_ns must not move with the version.
            total = 0.0
            for dur in durs[name]:
                total += dur
            p50, p95, p99 = np.percentile(durs[name], (50, 95, 99))
            out[name] = {
                "count": len(durs[name]), "total_ns": total,
                "p50_ns": float(p50), "p95_ns": float(p95),
                "p99_ns": float(p99),
            }
        return out

    def close(self) -> None:
        """Flush the summary line, the trace file, and close outputs."""
        if self._closed:
            return
        self._closed = True
        self._write_line({
            "type": "summary",
            "snapshots": self.snapshots,
            "spans": self.span_summary(),
        })
        if self._metrics_file is not None:
            self._metrics_file.close()
            self._metrics_file = None
        if self.trace_path is not None:
            write_trace(
                trace_doc([self.process], self.meta), self.trace_path,
                indent=None,
            )
