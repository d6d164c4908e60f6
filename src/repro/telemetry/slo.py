"""Streaming SLO engine: windowed objectives on the simulated clock.

The serving layer answers requests on the simulated DRAM clock; this
module watches those answers *as a stream* and folds them into
fixed-width windows, exactly the way a production SLO pipeline folds
arrival-stamped events into minutely buckets -- except every timestamp
here is simulated, so the whole evaluation is a pure function of the
workload and replays byte-identically at any worker count.

Three rule kinds cover the campaign gates the chaos harness already
enforces offline:

- ``latency_p99``   -- the window's served-request p99 (estimated from
  a log-bucketed histogram) must stay under ``threshold`` ns.
- ``availability``  -- the window's served fraction must stay above the
  ``threshold`` floor. The **burn rate** is the classic error-budget
  ratio ``(1 - availability) / (1 - floor)``: burn 1.0 spends budget
  exactly as fast as the objective allows, burn 2.0 exhausts it in half
  the period.
- ``detection_rate`` -- evaluated once at :meth:`SloEngine.finish`
  against the campaign's tamper-detection block; a detection gap is an
  SLO violation like any other.

The engine emits two structured JSONL record types (``slo_window`` and
``slo_alert``) plus Perfetto instant events for the alert timeline, so
one evaluation feeds the report, the ops stream ``telemetry view``
renders and the merged fleet trace without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Histogram, default_time_buckets
from repro.telemetry.spans import Event, instant_event

#: Rule kinds the engine evaluates.
RULE_KINDS = ("latency_p99", "availability", "detection_rate")

#: Category for SLO alert instants on the merged fleet trace.
CAT_SLO = "fleet.slo"

#: Burn rate at which a window trips an alert: any budget overspend.
BURN_ALERT = 1.0


@dataclass(frozen=True)
class SloRule:
    """One service-level objective.

    ``threshold`` is nanoseconds for ``latency_p99`` and a fraction in
    [0, 1] for the other kinds. A window trips an alert at burn rate
    ``BURN_ALERT``.
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


class SloEngine:
    """Fold completion events into SLO windows on the simulated clock.

    Feed :meth:`observe` in nondecreasing ``ns`` order (the caller
    merges shard streams by ``(done_ns, rid)`` first); each window
    crossing closes the previous window, appends one ``slo_window``
    record and zero or more ``slo_alert`` records to :attr:`records`.
    """

    def __init__(
        self,
        rules: Sequence[SloRule],
        window_ns: float,
    ) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self.rules = tuple(rules)
        self.window_ns = float(window_ns)
        self._bounds = default_time_buckets()
        #: Cumulative served-latency histogram (the merge-property
        #: anchor: shard-wise folds of this must equal a serial fold).
        self.hist = Histogram(self._bounds)
        self.requests = 0
        self.ok = 0
        self.records: List[Dict[str, Any]] = []
        self.alerts: List[Dict[str, Any]] = []
        self._win: Optional[int] = None
        self._win_hist = Histogram(self._bounds)
        self._win_requests = 0
        self._win_ok = 0
        self._last_ns = float("-inf")
        self._finished = False

    # ------------------------------------------------------------- folding

    def observe(self, ns: float, ok: bool, latency_ns: float) -> None:
        """One completion: served (``ok``) or terminal failure."""
        if self._finished:
            raise RuntimeError("SloEngine already finished")
        if ns < self._last_ns:
            raise ValueError(
                f"observations must be time-ordered: {ns} after "
                f"{self._last_ns}"
            )
        self._last_ns = ns
        idx = int(ns // self.window_ns)
        if self._win is None:
            self._win = idx
        elif idx > self._win:
            self._close_window()
            self._win = idx
        self.requests += 1
        self._win_requests += 1
        if ok:
            self.ok += 1
            self._win_ok += 1
            self.hist.observe(latency_ns)
            self._win_hist.observe(latency_ns)

    def _burn(self, rule: SloRule, availability: float, p99: float) -> float:
        if rule.kind == "latency_p99":
            return p99 / rule.threshold
        if rule.kind == "availability":
            return (1.0 - availability) / (1.0 - rule.threshold)
        return 0.0   # detection_rate: evaluated at finish, not per window

    def _close_window(self) -> None:
        if self._win is None or self._win_requests == 0:
            self._reset_window()
            return
        idx = self._win
        end_ns = (idx + 1) * self.window_ns
        availability = self._win_ok / self._win_requests
        p50 = self._win_hist.quantile(0.5)
        p99 = self._win_hist.quantile(0.99)
        burns = {
            r.name: self._burn(r, availability, p99)
            for r in self.rules if r.kind != "detection_rate"
        }
        self.records.append({
            "type": "slo_window",
            "window": idx,
            "start_ns": idx * self.window_ns,
            "end_ns": end_ns,
            "requests": self._win_requests,
            "ok": self._win_ok,
            "availability": availability,
            "p50_ns": p50,
            "p99_ns": p99,
            "burn": burns,
        })
        for rule in self.rules:
            if rule.kind == "detection_rate":
                continue
            burn = burns[rule.name]
            if burn >= BURN_ALERT and (
                rule.kind != "availability" or availability < rule.threshold
            ):
                value = p99 if rule.kind == "latency_p99" else availability
                self._alert(rule, idx, end_ns, value, burn)
        self._reset_window()

    def _alert(
        self, rule: SloRule, window: int, ns: float, value: float, burn: float
    ) -> None:
        record = {
            "type": "slo_alert",
            "rule": rule.name,
            "kind": rule.kind,
            "window": window,
            "ns": ns,
            "value": value,
            "threshold": rule.threshold,
            "burn": burn,
        }
        self.records.append(record)
        self.alerts.append(record)

    def _reset_window(self) -> None:
        self._win_hist = Histogram(self._bounds)
        self._win_requests = 0
        self._win_ok = 0

    # -------------------------------------------------------------- output

    def finish(
        self,
        end_ns: float,
        detection: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Close the last window, evaluate end-of-run rules, summarize.

        ``detection`` is the chaos cell's detection block
        (``{"tamper_injected", "tamper_detected", "rate"}``); the
        ``detection_rate`` rules are judged against its ``rate``.
        """
        if not self._finished:
            self._close_window()
            self._finished = True
            for rule in self.rules:
                if rule.kind != "detection_rate" or detection is None:
                    continue
                rate = detection.get("rate", 1.0)
                if rate < rule.threshold:
                    budget = 1.0 - rule.threshold
                    burn = (1.0 - rate) / budget if budget > 0 else 1.0
                    self._alert(
                        rule, self._win if self._win is not None else 0,
                        end_ns, rate, burn,
                    )
        availability = self.ok / self.requests if self.requests else 1.0
        return {
            "rules": [r.to_dict() for r in self.rules],
            "window_ns": self.window_ns,
            "windows": sum(
                1 for r in self.records if r["type"] == "slo_window"
            ),
            "requests": self.requests,
            "ok": self.ok,
            "availability": availability,
            "p50_ns": self.hist.quantile(0.5),
            "p99_ns": self.hist.quantile(0.99),
            "alerts": len(self.alerts),
        }

    def trace_instants(self, tid: int) -> List[Event]:
        """One Perfetto instant per alert, for the fleet trace's SLO track."""
        out: List[Event] = []
        for alert in self.alerts:
            out.append(instant_event(
                f"slo:{alert['rule']}", CAT_SLO, 0, tid, alert["ns"], {
                    "rule": alert["rule"],
                    "kind": alert["kind"],
                    "value": alert["value"],
                    "threshold": alert["threshold"],
                    "burn": alert["burn"],
                },
            ))
        return out


def fold_completions(
    engine: SloEngine,
    completions: Sequence[Any],
) -> None:
    """Feed serve-layer completions, ordered by ``(done_ns, rid)``.

    The merge point for fleet streams: concatenate every shard's
    completions, sort by the simulated completion stamp (rid breaks
    ties -- rids are fleet-unique), and fold. Identical to an
    in-order single-stack fold by construction.
    """
    for c in sorted(completions, key=lambda c: (c.done_ns, c.rid)):
        engine.observe(c.done_ns, c.status == "ok", c.latency_ns)


__all__ = [
    "CAT_SLO",
    "RULE_KINDS",
    "SloEngine",
    "SloRule",
    "default_slo_rules",
    "fold_completions",
]
