"""Chaos harness benchmark: BENCH_chaos.json plus its CI assertions.

Runs the smoke chaos campaign (fault injection under live serving
load through the resilient loop), emits the report next to the other
benchmark artifacts, and asserts the properties the CI gate relies on:

- the report validates against the chaos schema;
- the campaign gate holds: availability floors, 100% tamper detection
  under live load, faults actually fired where expected, and the
  tamper cell really entered (and left) degraded mode;
- the deterministic view is byte-identical across two same-seed runs;
- every cell's status accounting closes (nothing silently dropped).

The full (nightly-scale) soak runs via ``python -m repro serve chaos``
in the scheduled workflow, not here.
"""

import json

from _common import GENERATED_DIR, emit, once
from repro.serve.chaos import chaos_check, run_chaos, smoke_config
from repro.serve.schema import (
    CHAOS, render_chaos_report, validate_chaos_report,
)


def test_chaos_smoke_campaign(benchmark):
    doc = once(benchmark, lambda: run_chaos(smoke_config()))

    assert validate_chaos_report(doc) == []
    emit("chaos_smoke", render_chaos_report(doc))
    GENERATED_DIR.mkdir(exist_ok=True)
    out = GENERATED_DIR / "BENCH_chaos.json"
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    # The campaign gate: availability floors, full tamper detection,
    # and the episodes/faults each cell was designed to produce.
    assert chaos_check(doc) == []

    for cell in doc["cells"]:
        assert "error" not in cell, cell
        sim = cell["sim"]
        # Status accounting closes: every request completed exactly one
        # way, and only the fault cells shed or failed anything.
        assert sim["completions"] == sim["requests"]
        assert sum(sim["status"].values()) == sim["completions"]
        if cell["name"] == "baseline":
            assert sim["availability"] == 1.0
            assert sim["status"]["shed"] == 0
            assert sim["degraded_reads"] == 0

    # Determinism: a second same-seed run reproduces every
    # byte but the environment block.
    again = run_chaos(smoke_config())
    assert CHAOS.deterministic_bytes(again) == CHAOS.deterministic_bytes(doc)
