"""Tests for the telemetry subsystem (repro.telemetry).

Covers the Telemetry handle's span summary and its JSONL +
Chrome-trace outputs, the traced DramSink's observe-only
guarantee (bit-identical simulation results), the shared stderr
progress helper, and the call-count budget of
``tools/telemetry_overhead.py``.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import schemes as schemes_mod
from repro.sim.engine import SimConfig, Simulation
from repro.sim.runner import make_trace
from repro.telemetry import (
    Telemetry,
    load_stream,
    render_stream,
    stderr_progress,
)


LEVELS = 9
REQUESTS = 150
SEED = 3


def _small_sim(telemetry=None):
    cfg = schemes_mod.by_name("ab", LEVELS)
    trace = make_trace("spec", "mcf", cfg.n_real_blocks, REQUESTS, seed=SEED)
    return Simulation(cfg, trace, SimConfig(seed=SEED), telemetry=telemetry)


class TestTracingSink:
    """Span recording by ``DramSink(telemetry=...)`` (the class name
    predates the move: spans used to come from a forwarding wrapper)."""

    #: sha256 of ``json.dumps(t.spans)`` for ``_small_sim`` at depth 1,
    #: generated from the last commit that recorded spans through the
    #: TracingSink wrapper (234 spans).
    SPANS_SHA256 = (
        "3a3678d0d071438320bd5a06867fb1621e65ab3d14f4ca302bb43386e6fc670a"
    )

    def test_results_bit_identical_with_telemetry(self):
        bare = _small_sim().run()
        t = Telemetry()
        traced = _small_sim(telemetry=t).run()
        assert traced == bare
        assert len(t.spans) > 0

    def test_span_list_matches_pinned_golden(self):
        t = Telemetry()
        _small_sim(telemetry=t).run()
        assert len(t.spans) == 234
        digest = hashlib.sha256(json.dumps(t.spans).encode()).hexdigest()
        assert digest == self.SPANS_SHA256

    def test_spans_cover_operation_kinds(self):
        t = Telemetry()
        _small_sim(telemetry=t).run()
        kinds = {name for name, _, _ in t.spans}
        assert {"readPath", "evictPath"} <= kinds
        for _name, start, dur in t.spans:
            assert start >= 0 and dur >= 0

    def test_span_counters_match_span_list(self):
        t = Telemetry()
        _small_sim(telemetry=t).run()
        summary = t.span_summary()
        assert sum(e["count"] for e in summary.values()) == len(t.spans)
        for name, entry in summary.items():
            assert entry["count"] == sum(1 for s in t.spans if s[0] == name)


class TestTelemetryHandle:
    def test_rejects_negative_cadence(self):
        with pytest.raises(ValueError, match="metrics_every"):
            Telemetry(metrics_every=-1)

    def test_outputs_written_and_loadable(self, tmp_path):
        trace_path = tmp_path / "out" / "trace.json"
        metrics_path = tmp_path / "out" / "trace.jsonl"
        t = Telemetry(trace_path=str(trace_path),
                      metrics_path=str(metrics_path),
                      metrics_every=50, meta={"scheme": "ab"})
        _small_sim(telemetry=t).run()
        t.close()
        t.close()  # idempotent

        doc = json.loads(trace_path.read_text())
        assert doc["displayTimeUnit"] == "ns"
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == len(t.spans)
        assert doc["otherData"] == {"scheme": "ab"}

        stream = load_stream(str(metrics_path))
        assert stream["meta"]["scheme"] == "ab"
        # 150 requests at cadence 50 -> 3 periodic + 1 final snapshot.
        assert len(stream["snapshots"]) == 4
        assert "metrics" not in stream["summary"]
        spans = stream["summary"]["spans"]
        assert spans["readPath"]["count"] > 0
        for name, entry in spans.items():
            durs = [d for n, _, d in t.spans if n == name]
            assert entry["count"] == len(durs)
            for q in (50, 95, 99):
                assert entry[f"p{q}_ns"] == float(np.percentile(durs, q))

    def test_snapshots_carry_protocol_state(self, tmp_path):
        metrics_path = tmp_path / "m.jsonl"
        t = Telemetry(metrics_path=str(metrics_path), metrics_every=50)
        _small_sim(telemetry=t).run()
        t.close()
        last = load_stream(str(metrics_path))["snapshots"][-1]
        assert last["access"] == REQUESTS
        assert last["stash_peak"] >= last["stash_occupancy"] >= 0
        assert last["deadq_depth"], "AB run must report DeadQ depths"
        assert last["reshuffles_total"] > 0

    def test_metrics_every_zero_disables_periodic(self, tmp_path):
        metrics_path = tmp_path / "m.jsonl"
        t = Telemetry(metrics_path=str(metrics_path), metrics_every=0)
        _small_sim(telemetry=t).run()
        t.close()
        # Only the run-final snapshot remains.
        assert len(load_stream(str(metrics_path))["snapshots"]) == 1

    def test_telemetry_incompatible_with_checkpointing(self, tmp_path):
        sim = _small_sim(telemetry=Telemetry())
        with pytest.raises(ValueError, match="checkpoint"):
            sim.run(checkpoint_every=10,
                    checkpoint_path=str(tmp_path / "ckpt.pkl"))

    def test_render_stream(self, tmp_path):
        metrics_path = tmp_path / "m.jsonl"
        t = Telemetry(metrics_path=str(metrics_path), metrics_every=50,
                      meta={"scheme": "ab"})
        _small_sim(telemetry=t).run()
        t.close()
        text = render_stream(str(metrics_path))
        assert "Operation spans" in text
        assert "readPath" in text
        assert "deadq_depth.L" in text

    def test_load_stream_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            load_stream(str(bad))
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            load_stream(str(bad))
        bad.write_bytes(b'{"type": "meta"}\n\xff\xfe\n')
        with pytest.raises(ValueError, match=re.escape(f"{bad}:2: not UTF-8")):
            load_stream(str(bad))
        bad.write_text('{"type": "snapshot", "shard": "x", "window": 0}\n')
        with pytest.raises(ValueError, match=re.escape(
                f"{bad}:1: shard must be an integer, got 'x'")):
            load_stream(str(bad))


class TestSimulateHelper:
    def test_ring_run_reports_well_formed_telemetry(self, tmp_path):
        cfg = schemes_mod.by_name("ring", LEVELS)
        trace = make_trace("spec", "mcf", cfg.n_real_blocks, 60, seed=0)
        metrics_path = tmp_path / "ring.jsonl"
        t = Telemetry(metrics_path=str(metrics_path))
        result = Simulation(cfg, trace, SimConfig(seed=0), telemetry=t).run()
        t.close()
        assert result.exec_ns > 0
        assert t.spans
        # Ring has no extension machinery; snapshots still well-formed.
        snapshots = load_stream(str(metrics_path))["snapshots"]
        assert snapshots
        assert all(s["rentals_outstanding"] == 0 for s in snapshots)


class TestStderrProgress:
    def test_prints_to_stderr(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_QUIET", raising=False)
        stderr_progress("hello there")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "hello there" in captured.err

    def test_quiet_env_silences(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_QUIET", "1")
        stderr_progress("should not appear")
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_falsy_values_do_not_silence(self, capsys, monkeypatch):
        for value in ("", "0", "false", "no"):
            monkeypatch.setenv("REPRO_QUIET", value)
            stderr_progress("visible")
        assert capsys.readouterr().err.count("visible") == 4


ROOT = Path(__file__).resolve().parent.parent


def _doubled(tmp_path, module, method):
    """A copy of the ``repro`` package whose ``method`` in ``module``
    does its work twice: the original body lives on as ``_once`` and
    ``method`` calls it two times."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "repro" / "telemetry" / module
    text = path.read_text()
    head = f"    def {method}("
    assert text.count(head) == 1
    path.write_text(text.replace(head, (
        f"    def {method}(self, *a):\n"
        "        self._once(*a)\n"
        "        self._once(*a)\n\n"
        "    def _once("
    )))
    return src


def _overhead(src, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "telemetry_overhead.py"), *args],
        capture_output=True, text=True, cwd=src.parent,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


class TestOverheadBudget:
    """The telemetry gate counts named calls, so telemetry that does
    its work twice fails it on any host."""

    def test_doubled_span_recording_fails(self, tmp_path):
        proc = _overhead(_doubled(tmp_path, "handle.py", "record_span"))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAIL: [serial]" in proc.stderr

    def test_doubled_ops_sampler_fails_the_serve_budget(self, tmp_path):
        proc = _overhead(_doubled(tmp_path, "ops.py", "sample"), "--serve")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAIL: [serve-observability]" in proc.stderr
        assert "FAIL: [serial]" not in proc.stderr
