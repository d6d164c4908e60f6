"""``tools/reach.py`` and its recorder, ``tools/reach_site/sitecustomize.py``.

A process started with the recorder's directory on ``PYTHONPATH`` records
the ``src/repro`` functions it enters, and so does every child it starts;
the report sorts functions by the labels that entered them.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import schemes

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import subprocess, sys
from repro.core import schemes
schemes.classic_ring(8)
subprocess.run([sys.executable, "-c",
                "from repro.core import schemes; schemes.baseline_cb(8)"],
               check=True)
"""


@pytest.fixture
def reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools/reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _where(fn):
    code = fn.__code__
    return f"{Path(code.co_filename).relative_to(ROOT / 'src/repro').as_posix()}:{code.co_firstlineno}"


def test_a_child_and_its_child_record_under_the_inherited_label(reach, tmp_path):
    env = dict(os.environ, REACH_RECORDS=str(tmp_path), REACH_LABEL="tests/test_fake.py",
               PYTHONPATH=os.pathsep.join([str(reach.SITE), str(ROOT / "src")]))
    subprocess.run([sys.executable, "-c", CHILD], check=True, env=env, timeout=120)
    assert len(list(tmp_path.glob("*.json"))) == 2

    (tmp_path / "driver.json").write_text('{"labels": {"make": [["core/schemes.py", %d]]}}'
                                          % schemes.classic_ring.__code__.co_firstlineno)
    out = reach.report(tmp_path, list_all=True)
    tests_only = out.split("tests-only functions:\n")[1]
    assert f"{_where(schemes.baseline_cb)} baseline_cb" in tests_only
    assert f"{_where(schemes.classic_ring)} classic_ring" not in out
    assert f"{_where(schemes.ir_oram)} ir_oram" in out.split("tests-only functions:\n")[0]


def test_a_setting_every_workflow_passes_one_value_is_counted(reach, tmp_path):
    env = dict(os.environ, REACH_RECORDS=str(tmp_path), REACH_LABEL="make",
               PYTHONPATH=os.pathsep.join([str(reach.SITE), str(ROOT / "src")]))

    def run(code, label):
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(env, REACH_LABEL=label), timeout=120)

    run("from repro.core import schemes\n"
        "from repro.mem.dram import DramStats\n"
        "schemes.classic_ring(8); schemes.classic_ring(8, s=3); "
        "schemes.baseline_cb(9); DramStats()", "make")
    run("from repro.core import schemes; schemes.baseline_cb(10)",
        "tests/test_fake.py")
    out = reach.report(tmp_path, list_all=True)
    settings = out.split("single-valued settings:\n")[1].splitlines()[:-3]
    where = _where(schemes.classic_ring)
    assert f"  {where} classic_ring.levels = 8" in settings
    assert f"  {_where(schemes.baseline_cb)} baseline_cb.levels = 9" in settings
    assert "  oram/config.py OramConfig.block_bytes = 64" in settings
    text = "\n".join(settings)
    assert "classic_ring.s " not in text  # two values
    assert "OramConfig.levels" not in text  # 8 and 9
    assert "OramConfig.geometry" not in text  # data
    assert "DramStats" not in text  # a run-state record
    assert out.splitlines()[-1] == f"single-valued settings: {len(settings)}"


def test_harness_fields_the_nightly_sets_differently_are_not_settings(reach):
    nightly = reach.nightly_fields()
    assert ("serve/chaos.py:ChaosConfig", "levels") in nightly
    assert ("perf/runner.py:PerfConfig", "schemes") in nightly
    assert ("serve/chaos.py:ChaosConfig", "num_shards") not in nightly
    assert reach._is_deployment("trace_out") and reach._is_deployment("seed")
    assert not reach._is_deployment("levels")


def test_the_ratchet_fails_only_a_count_that_rose(reach):
    text = "\n".join(["reach audit: ...", "unreached functions: 5",
                      "tests-only functions: 40",
                      "single-valued settings: 33"])
    committed = {"unreached functions": 5, "tests-only functions": 41,
                 "single-valued settings": 32}
    assert reach.ratchet(text, committed) == [
        "single-valued settings rose from 32 to 33"]
    committed["single-valued settings"] = 33
    assert reach.ratchet(text, committed) == []


def test_a_failing_target_leaves_a_log_and_names_its_failures(
        reach, tmp_path, capsys):
    (tmp_path / "Makefile").write_text(
        "fine:\n\t@echo all fine\n"
        "broken:\n\t@echo 'FAILED tests/test_fake.py::test_it - assert 0'"
        "\n\t@exit 1\n")
    records = tmp_path / "records"
    assert reach.run_targets(records, ("fine", "broken"), tmp_path) != 0
    log = records / "make.log"
    assert "all fine" in log.read_text()
    err = capsys.readouterr().err
    assert f"its output is in {log}" in err
    assert "FAILED tests/test_fake.py::test_it - assert 0" in err
    # "make:" or, under an outer make, "make[1]:".
    assert "*** [Makefile:5: broken] Error 1" in err
    assert "all fine" not in err
    assert reach.run_targets(records, ("fine",), tmp_path) == 0
    assert capsys.readouterr().err == ""
