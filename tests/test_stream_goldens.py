"""Golden pin: the bytes of the 4-shard chaos fleet's JSONL streams.

One sha256 each for the ``--slo-out`` stream (SLO windows, alerts and
summary) and the ``--ops-out`` stream (per-shard ops snapshots plus the
alerts) that ``serve chaos --smoke --shards 4`` writes.
``tests/goldens/fleet_streams.json`` was recorded before the chaos
fleet and ``run_fleet`` shared one shard task and one fold; a refactor
of the fleet path must reproduce both files byte for byte. After an
intended change of a stream's content, regenerate with
``PYTHONPATH=src python tests/test_stream_goldens.py >
tests/goldens/fleet_streams.json`` and review the diff like a baseline
refresh.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from repro.cli import main

HERE = os.path.dirname(__file__)

ARGV = ["serve", "chaos", "--smoke", "--shards", "4"]
STREAMS = ("slo", "ops")


def stream_digests():
    """stream name -> sha256 of the JSONL file the fleet run writes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {s: os.path.join(tmp, f"{s}.jsonl") for s in STREAMS}
        argv = [*ARGV, "--out", os.path.join(tmp, "report.json")]
        for name, path in paths.items():
            argv += [f"--{name}-out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        digests = {}
        for name, path in paths.items():
            with open(path, "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
        return digests


def test_stream_bytes_match_golden():
    with open(os.path.join(HERE, "goldens", "fleet_streams.json")) as f:
        assert stream_digests() == json.load(f)


if __name__ == "__main__":
    json.dump(stream_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
