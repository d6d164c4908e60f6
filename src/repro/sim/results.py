"""Result records and aggregation helpers.

The paper reports per-benchmark bars plus a geometric-mean bar, with
most metrics normalized to the Baseline scheme; :func:`normalize` and
:func:`geomean` reproduce that presentation from raw
:class:`SimResult` records.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional


@dataclass
class SimResult:
    """Everything measured by one (scheme, trace) simulation."""

    scheme: str
    trace: str
    requests: int
    exec_ns: float
    time_by_kind: Dict[str, float]
    ops_by_kind: Dict[str, int]
    dram_reads: int
    dram_writes: int
    row_hit_rate: float
    bytes_transferred: int
    remote_accesses: int
    tree_bytes: int
    space_utilization: float
    online_accesses: int
    background_accesses: int
    evictions: int
    stash_peak: int
    reshuffles_by_level: List[int]
    extension_ratio: Optional[float]
    dead_blocks: int
    readpath_p50_ns: float = 0.0
    readpath_p99_ns: float = 0.0
    #: Robustness ledger (recovery counters, fault injection summary,
    #: integrity statistics); None for runs without a robustness policy.
    robustness: Optional[Dict[str, Any]] = None

    @property
    def bandwidth_gbps(self) -> float:
        """Consumed DRAM bandwidth over the measured window (GB/s)."""
        if self.exec_ns <= 0:
            return 0.0
        return self.bytes_transferred / self.exec_ns

    @property
    def ns_per_access(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.exec_ns / self.requests

    def sim_block(self) -> Dict[str, Any]:
        """The perf report's deterministic ``sim`` block of one cell."""
        return {
            "exec_ns": self.exec_ns,
            "ns_per_access": self.ns_per_access,
            "stash_peak": self.stash_peak,
            "reshuffles_total": int(sum(self.reshuffles_by_level)),
            "reshuffles_by_level": [int(x) for x in self.reshuffles_by_level],
            "dram_reads": int(self.dram_reads),
            "dram_writes": int(self.dram_writes),
            "row_hit_rate": self.row_hit_rate,
            "online_accesses": int(self.online_accesses),
            "background_accesses": int(self.background_accesses),
            "evictions": int(self.evictions),
            "dead_blocks": int(self.dead_blocks),
            "remote_accesses": int(self.remote_accesses),
        }

    def to_dict(self) -> Dict[str, object]:
        d = asdict(self)
        d["bandwidth_gbps"] = self.bandwidth_gbps
        d["ns_per_access"] = self.ns_per_access
        return d


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's cross-benchmark aggregate)."""
    vals = [v for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def normalize(
    results: Mapping[str, Mapping[str, SimResult]],
    metric: str,
    baseline: str = "Baseline",
) -> Dict[str, Dict[str, float]]:
    """Per-trace normalization of ``metric`` against ``baseline``.

    ``results`` is scheme -> trace -> SimResult; the return value is
    scheme -> trace -> metric(scheme)/metric(baseline), with a
    ``"geomean"`` entry per scheme.
    """
    if baseline not in results:
        raise KeyError(f"baseline scheme {baseline!r} missing from results")
    base = results[baseline]
    out: Dict[str, Dict[str, float]] = {}
    for scheme, by_trace in results.items():
        ratios: Dict[str, float] = {}
        for trace, res in by_trace.items():
            if trace not in base:
                raise KeyError(f"trace {trace!r} missing for baseline")
            denom = getattr(base[trace], metric)
            num = getattr(res, metric)
            if callable(denom) or callable(num):
                raise TypeError(f"{metric} is not a plain attribute")
            ratios[trace] = num / denom if denom else float("nan")
        ratios["geomean"] = geomean(
            [v for k, v in ratios.items() if k != "geomean"]
        )
        out[scheme] = ratios
    return out


def breakdown_fractions(result: SimResult) -> Dict[str, float]:
    """Fraction of memory time per operation class (Fig. 8c stacking)."""
    total = sum(result.time_by_kind.values())
    if total <= 0:
        return {k: 0.0 for k in result.time_by_kind}
    return {k: v / total for k, v in result.time_by_kind.items()}
