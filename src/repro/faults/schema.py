"""The ``BENCH_faults.json`` report format.

Mirrors :mod:`repro.perf.schema`: a :class:`repro.report.ReportSpec`
run by the shared report kernel. Like every report, every field here
is *deterministic* -- there are no wall-clock numbers and no
timestamps -- so two back-to-back runs of the same campaign produce
byte-identical files, and CI can diff them directly.

Top-level document::

    {
      "kind": "repro-faults-report",
      "schema_version": 1,
      "config":      { campaign definition, seeds, policy knobs },
      "environment": { "python": ..., "numpy": ..., "platform": ... },
      "doctor":      [ robustness findings as strings ],
      "baseline":    { fault-free run: exec_ns, stash_peak, ... },
      "cells":       [ { cell }, ... ]
    }

One cell per (fault kind, rate) pair::

    {
      "fault": "bit_flip", "rate": 0.005,
      "injected": ..., "detected": ..., "undetected": ...,
      "masked": ..., "latent": ...,        # dropped-write bookkeeping
      "detection_rate": ...,               # detected / observed
      "recovered": ..., "unrecovered": ..., "recovery_rate": ...,
      "retries": ..., "rebuilds": ..., "quarantines": ...,
      "payload_resets": ..., "stash_served": ...,
      "exec_ns": ..., "overhead_x": ...,   # vs the fault-free baseline
      "stash_peak": ...
    }

``detection_rate`` divides by *observed* faults (detected +
undetected): masked dropped writes (overwritten before any read) and
latent ones (never touched again) are excluded by construction.

A cell whose worker failed (crashed process, raised exception) is
recorded as an *error cell* instead of silently shrinking the sweep::

    { "fault": "bit_flip", "rate": 0.01, "error": "<traceback or note>" }

Error cells validate against that three-field shape only; the
``--require-detection`` CI gate treats an errored tampering cell as a
detection gap, never as a pass.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.report import FRACTION, NUM, ReportSpec


def _title(doc: Dict[str, Any], flavor: str) -> str:
    cfg = doc["config"]
    return (
        f"fault campaign ({flavor}): {cfg['scheme']}/{cfg['bench']} "
        f"L={cfg['levels']} requests={cfg['n_requests']} "
        f"seed={cfg['seed']} integrity={'on' if cfg['integrity'] else 'off'} "
        f"| baseline exec_ns={doc['baseline']['exec_ns']:.0f}"
    )


def _doctor_lines(doc: Dict[str, Any]) -> List[str]:
    if not doc.get("doctor"):
        return []
    return ["doctor findings:"] + [f"  {finding}" for finding in doc["doctor"]]


FAULTS = ReportSpec(
    kind="repro-faults-report",
    config={
        "scheme": str,
        "suite": str,
        "bench": str,
        "levels": int,
        "n_requests": int,
        "warmup_requests": int,
        "seed": int,
        "kinds": list,
        "rates": list,
        "retry_budget": int,
        "backoff_base_ns": NUM,
        "quarantine": bool,
        "integrity": bool,
        "max_outage_ops": int,
        "smoke": bool,
    },
    blocks={
        "doctor": list,
        "baseline": {
            "exec_ns": NUM,
            "stash_peak": int,
            "seals": int,
            "opens": int,
        },
    },
    cell={
        "fault": str,
        "rate": FRACTION,
        "injected": int,
        "detected": int,
        "undetected": int,
        "masked": int,
        "latent": int,
        "detection_rate": FRACTION,
        "recovered": int,
        "unrecovered": int,
        "recovery_rate": NUM,
        "retries": int,
        "rebuilds": int,
        "quarantines": int,
        "payload_resets": int,
        "stash_served": int,
        "exec_ns": NUM,
        "overhead_x": NUM,
        "stash_peak": int,
    },
    key="{fault}@{rate:g}",
    noun="campaign",
    title=_title,
    summary=(
        ("inj", "injected"),
        ("det", "detected"),
        ("undet", "undetected"),
        ("masked", "masked"),
        ("latent", "latent"),
        ("det_rate", "detection_rate"),
        ("recov", "recovered"),
        ("unrec", "unrecovered"),
        ("rebuilds", "rebuilds"),
        ("retries", "retries"),
        ("overhead_x", "overhead_x"),
        ("stash_peak", "stash_peak"),
    ),
    footer=_doctor_lines,
)

validate_report = FAULTS.validate
cell_key = FAULTS.cell_key
render_report = FAULTS.render
