"""The fleet ops stream: per-shard serving state on the simulated clock.

Serving campaigns can record a per-shard *ops stream* -- one JSONL
``snapshot`` record per (cell, shard, window) of the simulated clock,
derived by :class:`OpsSampler` once the resilient serving loop
finishes, plus the ``slo_window`` / ``slo_alert`` records of
:func:`repro.telemetry.slo.slo_windows`. Each snapshot carries the
shard's health state, queue depth, stash occupancy, DeadQ depth,
journal depth, throughput and p50/p99.
``repro telemetry view`` (:mod:`repro.telemetry.view`) renders the
stream as per-shard columns, SLO windows and alerts.

Because every record is stamped in simulated ns, the stream is
deterministic: the same campaign writes it byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.telemetry.slo import p50_p99


class OpsSampler:
    """One shard's serving state, one snapshot per simulated window.

    The resilient serving loop calls :meth:`sample` once per scheduling
    round with its live state; the sampler keeps, per window, the state
    of the last round sampled in it. :meth:`finish` derives
    :attr:`records`: one ``snapshot`` per window from the first sampled
    window through the run's last, each with the state of the last
    round sampled at or before it and the completions whose ``done_ns``
    falls in it. Sampling only *reads* -- attaching a sampler never
    changes serving decisions, clocks or results.
    """

    def __init__(
        self, cell: str, shard: int, window_ns: float, stack: Any,
    ) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.cell = cell
        self.shard = shard
        self.window_ns = float(window_ns)
        self._stack = stack
        self.records: List[Dict[str, Any]] = []
        self._states: Dict[int, Dict[str, Any]] = {}

    def sample(
        self,
        now: float,
        queue_depth: int,
        completions: Sequence[Any],
        degraded: bool,
        journal_depth: int,
    ) -> None:
        """Keep this round's state as its window's latest; the live
        ``completions`` list is read once, by :meth:`finish`."""
        oram = self._stack.kv.oram
        deadq = 0
        if oram.ext is not None:
            deadq = sum(len(q) for q in oram.ext.queues.queues.values())
        self._states[int(now // self.window_ns)] = {
            "state": "degraded" if degraded else "ok",
            "queue_depth": int(queue_depth),
            "journal_depth": int(journal_depth),
            "stash_occupancy": int(oram.stash.occupancy),
            "deadq_depth": int(deadq),
        }

    def finish(self, end_ns: float, completions: Sequence[Any]) -> None:
        """Derive every window's snapshot up to and including the run's
        last, from the run's final completion list."""
        last = int(end_ns // self.window_ns)
        done = sorted(completions, key=lambda c: c.done_ns)
        state: Dict[str, Any] = {}
        taken = 0
        for window in range(min(self._states, default=last), last + 1):
            state = self._states.get(window, state)
            end = (window + 1) * self.window_ns
            start = taken
            while taken < len(done) and done[taken].done_ns < end:
                taken += 1
            fresh = done[start:taken]
            served = [c.latency_ns for c in fresh if c.status == "ok"]
            p50, p99 = p50_p99(served)
            self.records.append({
                "type": "snapshot",
                "cell": self.cell,
                "shard": self.shard,
                "window": window,
                "ns": end,
                "requests": taken,
                "window_requests": len(fresh),
                "window_ok": len(served),
                "throughput_rps": len(fresh) / (self.window_ns / 1e9),
                "p50_ns": p50,
                "p99_ns": p99,
                **state,
            })


__all__ = ["OpsSampler"]
