"""Tests for the report kernel (repro.report) across all five specs."""

import copy
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.faults.campaign import run_campaign
from repro.faults.campaign import smoke_config as faults_smoke
from repro.faults.schema import FAULTS
from repro.perf.schema import PERF
from repro.report import EXIT_ERROR, EXIT_OK, compare_files, spec_for
from repro.serve.schema import CHAOS, SCALING, SERVE

BASELINES = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "baselines"
)


def _baseline(name):
    with open(os.path.join(BASELINES, f"BENCH_{name}_smoke.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def docs():
    """One valid document per report kind."""
    return {
        PERF.kind: _baseline("perf"),
        SERVE.kind: _baseline("serve"),
        CHAOS.kind: _baseline("chaos"),
        SCALING.kind: _baseline("scaling"),
        FAULTS.kind: run_campaign(faults_smoke(
            levels=7, n_requests=60, kinds=("bit_flip",), rates=(0.02,),
        )),
    }


SPECS = [PERF, FAULTS, SERVE, CHAOS, SCALING]


@pytest.mark.parametrize("spec", SPECS, ids=[s.kind for s in SPECS])
def test_unhashable_identity_is_a_finding_not_a_traceback(spec, docs):
    doc = copy.deepcopy(docs[spec.kind])
    assert spec_for(doc) is spec
    assert spec.validate(doc) == []
    field = spec.identity[0]
    for bad in (["x"], {}):
        doc["cells"][0][field] = bad
        errors = spec.validate(doc)
        assert any(f"cells[0].{field}" in e for e in errors), errors


def test_non_finite_numbers_fail_validation_and_the_gate(docs, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(docs[SERVE.kind]))
    for poison in (float("nan"), float("inf"), float("-inf")):
        doc = copy.deepcopy(docs[SERVE.kind])
        doc["cells"][0]["sim"]["latency_ns"]["p99"] = poison
        assert any("latency_ns.p99" in e for e in SERVE.validate(doc))
        new = tmp_path / "new.json"
        new.write_text(json.dumps(doc))   # json emits NaN/Infinity verbatim
        code, messages = compare_files(str(base), str(new))
        assert code == EXIT_ERROR
        assert any("finite" in m for m in messages)
    # bool is still not a number.
    doc = copy.deepcopy(docs[SERVE.kind])
    doc["cells"][0]["sim"]["sim_ns"] = True
    assert any("sim_ns" in e for e in SERVE.validate(doc))


def test_optional_chaos_blocks_are_shape_checked(docs, tmp_path):
    doc = copy.deepcopy(docs[CHAOS.kind])
    tamper = next(c for c in doc["cells"] if "detection" in c["sim"])
    assert {"faults", "security"} <= set(tamper["sim"])
    tamper["sim"]["detection"] = {"rate": "x"}
    tamper["sim"]["security"]["guesses"] = "many"
    del tamper["sim"]["faults"]["injected"]
    errors = CHAOS.validate(doc)
    for needle in ("detection.rate", "detection: missing field "
                   "'tamper_injected'", "security.guesses",
                   "faults: missing field 'injected'"):
        assert any(needle in e for e in errors), (needle, errors)
    # The gate reads sim.detection.rate: a malformed block must stop at
    # validation (exit 2), never reach the comparison and raise.
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(docs[CHAOS.kind]))
    new.write_text(json.dumps(doc))
    code, _ = compare_files(str(base), str(new))
    assert code == EXIT_ERROR
    # Cells without the optional blocks (the fault-free one) stay valid.
    assert any("detection" not in c["sim"] for c in docs[CHAOS.kind]["cells"])


def test_drilled_shard_blocks_are_shape_checked(docs):
    doc = copy.deepcopy(docs[SCALING.kind])
    drill = next(c for c in doc["cells"] if c["drill"])
    shard = next(s for s in drill["sim"]["shards"] if s["drill"])
    shard["sim"]["detection"]["tamper_detected"] = None
    shard["sim"]["episodes"] = []
    errors = SCALING.validate(doc)
    assert any("detection.tamper_detected" in e for e in errors)
    assert any("episodes: must be an object" in e for e in errors)


@pytest.mark.parametrize("command", ["perf", "serve"])
def test_compare_cli_on_malformed_file_is_one_line_exit_2(
    command, docs, tmp_path, capsys
):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(docs[PERF.kind if command == "perf"
                                    else SERVE.kind]))
    truncated = tmp_path / "truncated.json"
    truncated.write_text(good.read_text()[:200])
    binary = tmp_path / "binary.json"
    binary.write_bytes(bytes(range(256)))
    wrong_kind = tmp_path / "wrong.json"
    wrong_kind.write_text(json.dumps(docs[FAULTS.kind]))
    for bad in (truncated, binary, wrong_kind, tmp_path / "missing.json"):
        assert cli_main([command, "compare", str(good), str(bad)]) == 2
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("ERROR"), out
    assert cli_main([command, "compare", str(good), str(good)]) == EXIT_OK
