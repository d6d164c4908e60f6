"""The fleet ops stream: per-shard serving state on the simulated clock.

Serving campaigns can record a per-shard *ops stream* -- one JSONL
``snapshot`` record per (cell, shard, window) sampled on the simulated
clock by :class:`OpsSampler` inside the resilient serving loop, plus
the SLO engine's ``slo_window`` / ``slo_alert`` records. Each snapshot
carries the shard's health state, queue depth, stash occupancy, DeadQ
depth, journal depth, throughput and p50/p99.
``repro telemetry view`` (:mod:`repro.telemetry.view`) renders the
stream as per-shard columns, SLO windows and alerts.

Because every record is stamped in simulated ns, the stream is
deterministic: the same campaign writes it byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.slo import p50_p99


class OpsSampler:
    """Sample one shard's serving state at window boundaries.

    The resilient serving loop calls :meth:`sample` once per scheduling
    round with its live state; the sampler emits one ``snapshot``
    record per elapsed simulated window. Sampling only *reads* --
    attaching a sampler never changes serving decisions, clocks or
    results.
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
        self._win: Optional[int] = None
        self._taken = 0        # completions pulled off the live list
        self._attributed = 0   # completions folded into closed windows
        self._carry: List[Any] = []   # seen, but done after the window
        self._state: Dict[str, Any] = {}

    def _oram_depths(self) -> Dict[str, int]:
        oram = self._stack.kv.oram
        deadq = 0
        if oram.ext is not None:
            deadq = sum(
                len(q) for q in oram.ext.queues.queues.values()
            )
        return {
            "stash_occupancy": int(oram.stash.occupancy),
            "deadq_depth": int(deadq),
        }

    def _close(self, window: int, completions: Sequence[Any]) -> None:
        # Attribute by completion stamp: a clock jump can close several
        # windows at once, and each completion belongs to the window
        # its ``done_ns`` falls in, not to the first one closed.
        end_ns = (window + 1) * self.window_ns
        pool = self._carry + list(completions[self._taken:])
        self._taken = len(completions)
        fresh = [c for c in pool if c.done_ns < end_ns]
        self._carry = [c for c in pool if c.done_ns >= end_ns]
        self._attributed += len(fresh)
        served = [c.latency_ns for c in fresh if c.status == "ok"]
        window_s = self.window_ns / 1e9
        p50, p99 = p50_p99(served)
        record = {
            "type": "snapshot",
            "cell": self.cell,
            "shard": self.shard,
            "window": window,
            "ns": end_ns,
            "requests": self._attributed,
            "window_requests": len(fresh),
            "window_ok": len(served),
            "throughput_rps": len(fresh) / window_s,
            "p50_ns": p50,
            "p99_ns": p99,
        }
        record.update(self._state)
        self.records.append(record)

    def sample(
        self,
        now: float,
        queue_depth: int,
        completions: Sequence[Any],
        degraded: bool,
        journal_depth: int,
    ) -> None:
        idx = int(now // self.window_ns)
        if self._win is None:
            self._win = idx
        while self._win < idx:
            self._close(self._win, completions)
            self._win += 1
        self._state = {
            "state": "degraded" if degraded else "ok",
            "queue_depth": int(queue_depth),
            "journal_depth": int(journal_depth),
            **self._oram_depths(),
        }

    def finish(self, end_ns: float, completions: Sequence[Any]) -> None:
        """Close every window up to and including the run's last."""
        idx = int(end_ns // self.window_ns)
        if self._win is None:
            self._win = idx
        while self._win < idx:
            self._close(self._win, completions)
            self._win += 1
        self._close(self._win, completions)


__all__ = ["OpsSampler"]
