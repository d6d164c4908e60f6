"""The live metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

1. **Cheap enough to leave on.** The hot-path operations are
   ``Counter.inc`` (one int add), ``Gauge.set`` (one float store) and
   ``Histogram.observe`` (one bisect + int add). Instruments are
   created once through the registry and cached by the caller, so the
   name lookup never sits on a per-access path.
2. **Deterministic snapshots.** :meth:`MetricsRegistry.snapshot`
   returns a plain JSON-able dict with instruments in sorted-name
   order, so two runs that made the same updates produce byte-identical
   serializations regardless of creation order.

Histograms use *fixed* bucket bounds chosen at creation; quantiles are
estimated by linear interpolation inside the bucket that crosses the
requested rank. That trades exactness for O(1) memory -- the classic
serving-stack compromise.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple


def default_time_buckets() -> Tuple[float, ...]:
    """Power-of-two bounds (ns) covering DRAM-op to whole-run scales."""
    return tuple(float(64 << i) for i in range(31))


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self) -> None:
        self.value += 1


class Gauge:
    """A last-value instrument that also remembers its maximum."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value: Optional[float] = None
        self.max: Optional[float] = None

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        if self.max is None or value > self.max:
            self.max = value


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimation.

    ``bounds`` are ascending upper edges; observations above the last
    bound land in an implicit overflow bucket. ``counts`` therefore has
    ``len(bounds) + 1`` entries.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(float(b) for b in (bounds or default_time_buckets()))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be ascending: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) from the bucket counts.

        Linear interpolation inside the crossing bucket; the overflow
        bucket reports its lower edge (the estimate is then a floor).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0.0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= target:
                if i == len(self.bounds):        # overflow bucket
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (target - seen) / c
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
            seen += c
        return self.bounds[-1]


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------ creation

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        """The ``name`` histogram, on :func:`default_time_buckets`."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> Dict[str, Any]:
        """Plain JSON-able state dump, instruments in sorted-name order."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": g.value, "max": g.max}
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for name, h in sorted(self._histograms.items())
            },
        }


def quantiles_from_snapshot(hist: Dict[str, Any]) -> List[float]:
    """Estimate p50, p95 and p99 from one snapshot's histogram entry."""
    h = Histogram(hist["bounds"])
    h.counts = [int(c) for c in hist["counts"]]
    h.count = int(hist["count"])
    h.sum = float(hist["sum"])
    return [h.quantile(q) for q in (0.5, 0.95, 0.99)]
