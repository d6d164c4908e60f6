"""Tests for the telemetry subsystem (repro.telemetry).

Covers the metrics registry and its snapshots, the Telemetry handle's
JSONL + Chrome-trace outputs, the traced DramSink's observe-only
guarantee (bit-identical simulation results), and the shared stderr
progress helper.
"""

import hashlib
import json

import pytest

from repro.core import schemes as schemes_mod
from repro.sim.engine import SimConfig, Simulation, simulate
from repro.sim.runner import make_trace
from repro.telemetry import (
    Telemetry,
    load_stream,
    quantiles_from_snapshot,
    render_stream,
    stderr_progress,
)
from repro.telemetry.metrics import Histogram, MetricsRegistry


LEVELS = 9
REQUESTS = 150
SEED = 3


def _small_sim(telemetry=None):
    cfg = schemes_mod.by_name("ab", LEVELS)
    trace = make_trace("spec", "mcf", cfg.n_real_blocks, REQUESTS, seed=SEED)
    return Simulation(cfg, trace, SimConfig(seed=SEED), telemetry=telemetry)


class TestInstruments:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert reg.counter("x") is c  # get-or-create returns the same

    def test_gauge_tracks_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        for v in (3, 9, 2):
            g.set(v)
        assert g.value == 2.0
        assert g.max == 9.0

    def test_histogram_buckets_and_mean(self):
        h = Histogram(bounds=(10.0, 100.0))
        for v in (5, 50, 500):
            h.observe(v)
        assert h.counts == [1, 1, 1]   # one per bucket incl. overflow
        assert h.count == 3
        assert h.mean == pytest.approx(555 / 3)

    def test_histogram_quantile_interpolates(self):
        h = Histogram(bounds=(10.0, 20.0))
        for _ in range(10):
            h.observe(15.0)            # all in the (10, 20] bucket
        assert 10.0 <= h.quantile(0.5) <= 20.0
        assert h.quantile(0.0) >= 0.0
        assert h.quantile(1.0) == 20.0

    def test_histogram_overflow_reports_last_bound(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(99.0)
        assert h.quantile(0.5) == 2.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram(bounds=(2.0, 1.0))

    def test_histogram_empty_bounds_fall_back_to_defaults(self):
        from repro.telemetry import default_time_buckets
        assert Histogram(bounds=()).bounds == default_time_buckets()

    def test_registry_rejects_bounds_mismatch(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="different bounds"):
            reg.histogram("h", bounds=(1.0, 3.0))

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram(bounds=(1.0,)).quantile(1.5)


class TestSnapshotMerge:
    def test_snapshot_is_sorted_and_json_able(self):
        reg = MetricsRegistry()
        reg.counter("zeta").inc()
        reg.counter("alpha").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["alpha", "zeta"]
        json.dumps(snap)  # plain data, round-trippable

    def test_quantiles_from_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=(10.0, 20.0))
        for _ in range(100):
            h.observe(15.0)
        entry = reg.snapshot()["histograms"]["h"]
        p50, p95, p99 = quantiles_from_snapshot(entry)
        assert 10.0 <= p50 <= p95 <= p99 <= 20.0


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
        with Telemetry() as t:
            traced = _small_sim(telemetry=t).run()
        assert traced == bare
        assert len(t.spans) > 0

    def test_span_list_matches_pinned_golden(self):
        with Telemetry() as t:
            _small_sim(telemetry=t).run()
        assert len(t.spans) == 234
        digest = hashlib.sha256(json.dumps(t.spans).encode()).hexdigest()
        assert digest == self.SPANS_SHA256

    def test_spans_cover_operation_kinds(self):
        with Telemetry() as t:
            _small_sim(telemetry=t).run()
        kinds = {name for name, _, _ in t.spans}
        assert {"readPath", "evictPath"} <= kinds
        for _name, start, dur in t.spans:
            assert start >= 0 and dur >= 0

    def test_span_counters_match_span_list(self):
        with Telemetry() as t:
            _small_sim(telemetry=t).run()
        counters = t.registry.snapshot()["counters"]
        for name, entry in t.span_summary().items():
            assert counters[f"ops.{name}"] == entry["count"]


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
        assert stream["summary"]["metrics"]["counters"]["ops.readPath"] > 0

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
        gauges = t.registry.snapshot()["gauges"]
        assert gauges["stash.peak"]["value"] == last["stash_peak"]
        for lv, depth in last["deadq_depth"].items():
            assert gauges[f"deadq.depth.L{lv}"]["value"] == depth

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


class TestSimulateHelper:
    def test_module_level_simulate_accepts_telemetry(self):
        cfg = schemes_mod.by_name("ring", LEVELS)
        trace = make_trace("spec", "mcf", cfg.n_real_blocks, 60, seed=0)
        with Telemetry() as t:
            result = simulate(cfg, trace, SimConfig(seed=0), telemetry=t)
        assert result.exec_ns > 0
        assert t.spans
        # Ring has no extension machinery; snapshots still well-formed.
        assert t.registry.snapshot()["gauges"]["rentals.outstanding"] == {
            "value": 0.0, "max": 0.0}


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
