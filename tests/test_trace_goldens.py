"""Golden pin: the bytes of every Perfetto trace the CLI writes.

One sha256 per producer -- the single-stack op-span trace (serial and
pipelined sink), the per-request serving trace, the chaos trace with
its resilience track, and the merged 4-shard fleet trace.
``tests/goldens/trace_docs.json`` was recorded at the commit before
the three hand-rolled document builders became one; a refactor of the
trace code must reproduce every file byte for byte. After an intended
change of a trace's content, regenerate with ``PYTHONPATH=src python
tests/test_trace_goldens.py > tests/goldens/trace_docs.json`` and
review the diff like a baseline refresh.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from repro.cli import main

HERE = os.path.dirname(__file__)

_SIMULATE = ["simulate", "--levels", "8", "--requests", "200",
             "--warmup", "0"]

#: name -> CLI argv (``--trace-out`` and, for report harnesses,
#: ``--out`` are appended into a scratch directory).
CASES = {
    "simulate/ab": [*_SIMULATE, "--scheme", "ab"],
    "simulate/ns-p4": [*_SIMULATE, "--scheme", "ns", "--pipeline-depth", "4"],
    "serve-bench": ["serve", "bench", "--smoke"],
    "serve-chaos": ["serve", "chaos", "--smoke"],
    "serve-chaos-4shards": ["serve", "chaos", "--smoke", "--shards", "4"],
}


def trace_digest(name):
    """sha256 of the trace file ``CASES[name]`` writes."""
    argv = list(CASES[name])
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.json")
        argv += ["--trace-out", trace]
        if argv[0] == "serve":
            argv += ["--out", os.path.join(tmp, "report.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        with open(trace, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()


def _golden():
    with open(os.path.join(HERE, "goldens", "trace_docs.json")) as f:
        return json.load(f)


def test_golden_covers_every_producer():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_bytes_match_golden(name):
    assert trace_digest(name) == _golden()[name]


if __name__ == "__main__":
    json.dump({name: trace_digest(name) for name in sorted(CASES)},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
