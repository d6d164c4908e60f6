"""Golden pin: the smoke harnesses reproduce their committed baselines.

Each smoke report is regenerated in-process and its deterministic view
(everything but the host-dependent fields) must equal the committed
``benchmarks/baselines/BENCH_*_smoke.json``'s. This is the safety net
for refactors of the harness: any change to what a report *contains*
fails here and must land together with a reviewed baseline refresh.
"""

import json
import os

import pytest

from repro.perf.runner import run_perf
from repro.perf.runner import smoke_config as perf_smoke
from repro.perf.schema import PERF
from repro.serve.bench import run_serve
from repro.serve.bench import smoke_config as serve_smoke
from repro.serve.chaos import run_chaos
from repro.serve.chaos import smoke_config as chaos_smoke
from repro.serve.scaling import run_scaling
from repro.serve.scaling import smoke_config as scaling_smoke
from repro.serve.schema import CHAOS, SCALING, SERVE

BASELINES = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "baselines"
)

HARNESSES = [
    ("perf", PERF, run_perf, perf_smoke),
    ("serve", SERVE, run_serve, serve_smoke),
    ("chaos", CHAOS, run_chaos, chaos_smoke),
    ("scaling", SCALING, run_scaling, scaling_smoke),
]


@pytest.mark.parametrize(
    "name,spec,run,smoke", HARNESSES, ids=[h[0] for h in HARNESSES]
)
def test_smoke_report_matches_committed_baseline(name, spec, run, smoke):
    with open(os.path.join(BASELINES, f"BENCH_{name}_smoke.json")) as f:
        baseline = json.load(f)
    assert spec.validate(baseline) == []
    doc = run(smoke())
    assert spec.validate(doc) == []
    assert spec.deterministic_view(doc) == spec.deterministic_view(baseline)
    assert spec.deterministic_bytes(doc) == spec.deterministic_bytes(baseline)
