"""Serving harness benchmark: BENCH_serve.json plus its CI assertions.

Runs the smoke serving matrix (open-loop zipf workloads, fifo vs.
batch scheduling over the oblivious KV store), emits the report next
to the other benchmark artifacts, and asserts the properties the CI
gate relies on:

- the report validates against the serve schema;
- the deterministic view is byte-identical across two same-seed runs;
- the batch policy beats naive FIFO on the workload that expects it
  (fewer oblivious accesses per request, at least one dedup hit);
- the access sequence stays indistinguishable: the guessing attacker's
  advantage is within the smoke tolerance under both policies.

The full (nightly-scale) matrix runs via ``python -m repro serve
bench`` in the scheduled workflow, not here.
"""

import json

from _common import GENERATED_DIR, emit, once
from repro.serve.bench import dedup_check, run_serve, smoke_config
from repro.serve.schema import SERVE, render_report, validate_report

#: Smoke-scale bound on |success - 1/L| for the guessing attacker.
ADVANTAGE_TOL = 0.05


def test_serve_smoke_matrix(benchmark):
    doc = once(benchmark, lambda: run_serve(smoke_config()))

    assert validate_report(doc) == []
    emit("serve_smoke", render_report(doc))
    GENERATED_DIR.mkdir(exist_ok=True)
    out = GENERATED_DIR / "BENCH_serve.json"
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")

    # The scheduler's wins must not come from skipping real work: every
    # cell served the full request count.
    for cell in doc["cells"]:
        assert "error" not in cell, cell
        assert cell["sim"]["requests"] == sum(cell["sim"]["ops"].values())

    # Dedup gate: batch beats naive FIFO where the workload expects it.
    assert dedup_check(doc) == []

    # Security: batching must not leak -- the observed access sequence
    # keeps the guessing attacker at chance level under both policies.
    for cell in doc["cells"]:
        sec = cell["sim"]["security"]
        assert abs(sec["advantage"]) < ADVANTAGE_TOL, (
            cell["workload"], cell["policy"], sec,
        )

    # Determinism: a second same-seed run reproduces every
    # byte but the environment block.
    again = run_serve(smoke_config())
    assert SERVE.deterministic_bytes(again) == SERVE.deterministic_bytes(doc)
