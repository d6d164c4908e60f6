"""SLO windows derived from a finished run's completions.

The serving layer answers requests on the simulated DRAM clock; this
module groups a finished run's completions into fixed-width windows of
that clock and judges each window against a rule set. Every timestamp
is simulated, so the evaluation is a pure function of the workload and
replays byte-identically at any worker count.

Three rule kinds cover the campaign gates the chaos harness already
enforces offline:

- ``latency_p99``   -- the window's served-request p99
  (``np.percentile`` over the window's served latencies) must stay
  under ``threshold`` ns.
- ``availability``  -- the window's served fraction must stay above the
  ``threshold`` floor. The **burn rate** is the classic error-budget
  ratio ``(1 - availability) / (1 - floor)``: burn 1.0 spends budget
  exactly as fast as the objective allows, burn 2.0 exhausts it in half
  the period.
- ``detection_rate`` -- evaluated once over the whole run against the
  campaign's tamper-detection block; a detection gap is an SLO
  violation like any other.

:func:`slo_windows` emits two structured JSONL record types
(``slo_window`` and ``slo_alert``) and :func:`slo_instants` turns the
alerts into Perfetto instant events, so one evaluation feeds the
report, the ops stream ``telemetry view`` renders and the merged fleet
trace without re-deriving anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.spans import Event, instant_event

#: Rule kinds :func:`slo_windows` evaluates.
RULE_KINDS = ("latency_p99", "availability", "detection_rate")

#: Category for SLO alert instants on the merged fleet trace.
CAT_SLO = "fleet.slo"

#: Burn rate at which a window trips an alert: any budget overspend.
BURN_ALERT = 1.0


@dataclass(frozen=True)
class SloRule:
    """One service-level objective.

    ``threshold`` is nanoseconds for ``latency_p99`` and a fraction in
    [0, 1] for the other kinds (below 1 for ``availability``, whose
    error budget is ``1 - threshold``). A window trips an alert at burn
    rate ``BURN_ALERT``.
    """

    name: str
    kind: str
    threshold: float

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(
                f"unknown SLO rule kind {self.kind!r} "
                f"(expected one of {RULE_KINDS})"
            )
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.kind != "latency_p99" and self.threshold > 1.0:
            raise ValueError(
                f"{self.kind} threshold is a fraction, got {self.threshold}"
            )
        if self.kind == "availability" and self.threshold >= 1.0:
            # The burn rate divides by the error budget 1 - threshold.
            raise ValueError(f"availability threshold is a fraction below 1, got {self.threshold}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "burn_alert": BURN_ALERT,
        }


def default_slo_rules(
    min_availability: float = 0.9,
    p99_ns: float = 2_000_000.0,
    detection: bool = False,
) -> Tuple[SloRule, ...]:
    """The rule set the chaos campaign derives from each cell's gate."""
    rules = [
        SloRule("latency-p99", "latency_p99", p99_ns),
        SloRule(
            "availability", "availability",
            # A floor of 0 (or 1.0 exactly) breaks the budget ratio;
            # clamp into the open interval the burn math needs.
            min(max(min_availability, 0.05), 0.999),
        ),
    ]
    if detection:
        rules.append(SloRule("tamper-detection", "detection_rate", 0.999))
    return tuple(rules)


def _burn(rule: SloRule, value: float) -> float:
    """Error-budget burn rate of ``value`` (a p99 or a fraction)."""
    if rule.kind == "latency_p99":
        return value / rule.threshold
    budget = 1.0 - rule.threshold
    return (1.0 - value) / budget if budget > 0 else 1.0


def _alerts(
    rules: Sequence[SloRule], values: Dict[str, float], window: int,
    ns: float,
) -> List[Dict[str, Any]]:
    """The ``slo_alert`` records ``rules`` trip at ``values`` (by kind):
    a p99 at burn ``BURN_ALERT``, a fraction below its floor."""
    out = []
    for rule in rules:
        value = values[rule.kind]
        burn = _burn(rule, value)
        if burn >= BURN_ALERT and (
            rule.kind == "latency_p99" or value < rule.threshold
        ):
            out.append({
                "type": "slo_alert",
                "rule": rule.name,
                "kind": rule.kind,
                "window": window,
                "ns": ns,
                "value": value,
                "threshold": rule.threshold,
                "burn": burn,
            })
    return out


def _served(group: Sequence[Any]) -> Dict[str, Any]:
    """Request counts and served-latency percentiles of ``group``."""
    served = [c.latency_ns for c in group if c.status == "ok"]
    p50, p99 = p50_p99(served)
    return {
        "requests": len(group),
        "ok": len(served),
        "availability": len(served) / len(group) if group else 1.0,
        "p50_ns": p50,
        "p99_ns": p99,
    }


def slo_windows(
    rules: Sequence[SloRule],
    window_ns: float,
    completions: Sequence[Any],
    end_ns: float,
    detection: Optional[Dict[str, Any]] = None,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Judge a finished run's completions against ``rules``.

    Sorts ``completions`` by ``(done_ns, rid)`` -- rids are
    fleet-unique, so any permutation or shard concatenation of one list
    gives the same result -- and groups them by ``int(done_ns //
    window_ns)``. Returns ``(records, summary)``: an ``slo_window``
    record per non-empty window, each followed by the ``slo_alert``
    records it trips, then the ``detection_rate`` alerts at ``end_ns``,
    judged against ``detection`` (the chaos cell's detection block,
    ``{"tamper_injected", "tamper_detected", "rate"}``) when given.
    """
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate rule names: {names}")
    window_ns = float(window_ns)
    windowed = [r for r in rules if r.kind != "detection_rate"]
    ordered = sorted(completions, key=lambda c: (c.done_ns, c.rid))
    records: List[Dict[str, Any]] = []
    idx = 0
    for idx, group in itertools.groupby(
        ordered, key=lambda c: int(c.done_ns // window_ns),
    ):
        stats = _served(list(group))
        values = {"latency_p99": stats["p99_ns"], "availability": stats["availability"]}
        records.append({
            "type": "slo_window",
            "window": idx,
            "start_ns": idx * window_ns,
            "end_ns": (idx + 1) * window_ns,
            **stats,
            "burn": {r.name: _burn(r, values[r.kind]) for r in windowed},
        })
        records.extend(_alerts(windowed, values, idx, (idx + 1) * window_ns))
    if detection is not None:
        records.extend(_alerts(
            [r for r in rules if r.kind == "detection_rate"],
            {"detection_rate": detection.get("rate", 1.0)}, idx, end_ns,
        ))
    alerts = sum(1 for r in records if r["type"] == "slo_alert")
    return records, {
        "rules": [r.to_dict() for r in rules],
        "window_ns": window_ns,
        "windows": len(records) - alerts,
        **_served(ordered),
        "alerts": alerts,
    }


def slo_instants(records: Sequence[Dict[str, Any]], tid: int) -> List[Event]:
    """One Perfetto instant per ``slo_alert`` record, for the fleet
    trace's SLO track."""
    return [
        instant_event(f"slo:{r['rule']}", CAT_SLO, 0, tid, r["ns"], {
            k: r[k] for k in ("rule", "kind", "value", "threshold", "burn")
        })
        for r in records if r["type"] == "slo_alert"
    ]


def p50_p99(latencies: Sequence[float]) -> Tuple[float, float]:
    """Exact p50 and p99 of ``latencies``; zeros when nothing was served.

    The one quantile rule of the SLO windows, the run summary and the
    ops stream's per-window snapshots.
    """
    if not latencies:
        return 0.0, 0.0
    p50, p99 = np.percentile(latencies, (50, 99))
    return float(p50), float(p99)


__all__ = [
    "CAT_SLO",
    "RULE_KINDS",
    "SloRule",
    "default_slo_rules",
    "p50_p99",
    "slo_instants",
    "slo_windows",
]
