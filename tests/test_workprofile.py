"""The committed work profile (``BENCH_work.json``) is the program's.

``tools/workprofile.py`` counts the calls per timed op of every named
``src/repro`` function on six end-to-end workloads; the counts are a
pure function of the code, so a change that moves the work any of them
does must re-record the file (``make workprofile``) in the same commit.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import workprofile  # noqa: E402


def test_a_fresh_profile_equals_the_committed_file():
    # A fresh interpreter: lazy imports this session already resolved
    # would otherwise drop out of the counts.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "workprofile.py"), "--check"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_layer_is_a_benchmark_layer():
    """Layers are ``per_layer`` prefixes of ``BENCHMARK.json``
    (``faults`` among them, for ``repro.faults``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prefixes = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    assert set(workprofile.LAYERS.values()) <= prefixes
    doc = json.loads((ROOT / "BENCH_work.json").read_text())
    assert list(doc["workloads"]) == list(workprofile.WORKLOADS)
    for name, work in doc["workloads"].items():
        assert set(work["layers"]) <= set(workprofile.LAYERS.values()), name
        assert work["ops"] > 0, name
