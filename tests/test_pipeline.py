"""Tests for the transaction pipeline (repro.core.pipeline).

The pipeline's contract has three legs, each tested here:

1. Depth 1 is *bit-identical* to the serial controller -- including
   against the committed ``BENCH_perf_smoke.json`` golden sim blocks.
2. Any depth produces *identical logical results* (protocol counters,
   final stash, final position map); only timing-derived fields move.
3. The windowed DRAM model underneath (interval-ledger bus and bank
   placement, admission window) keeps its own invariants.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import schemes
from repro.mem.dram import DramModel
from repro.mem.timing import DDR3_1600
from repro.perf.schema import (
    cell_key,
    deterministic_bytes,
    deterministic_view,
    validate_report,
)
from repro.sim.engine import SimConfig, Simulation
from repro.traces.spec import spec_trace

BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir,
    "benchmarks", "baselines", "BENCH_perf_smoke.json",
)

#: SimResult scalar fields that depend on *when* DRAM traffic lands;
#: everything else must be depth-invariant.
TIMING_ATTRS = frozenset((
    "exec_ns", "ns_per_access", "row_hit_rate", "bandwidth_gbps",
))


def _run(scheme="ns", levels=8, requests=200, warmup=40, seed=0, depth=1):
    cfg = schemes.by_name(scheme, levels)
    trace = spec_trace("mcf", cfg.n_real_blocks, requests, seed=seed)
    sim = Simulation(cfg, trace, SimConfig(
        seed=seed, warmup_requests=warmup, pipeline_depth=depth,
    ))
    result = sim.run()
    return sim, result


def _logical_fields(result):
    """SimResult numeric fields minus the timing-derived ones."""
    out = {}
    for name in dir(result):
        if name.startswith("_") or name in TIMING_ATTRS:
            continue
        value = getattr(result, name)
        if callable(value):
            continue
        if isinstance(value, (dict, list)):
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # Timing-scalar aggregates (ns totals) also move with depth.
            if name.endswith("_ns") or name.endswith("_s"):
                continue
            out[name] = value
    return out


def _oram_state(sim):
    """Final protocol state: stash content and position map."""
    stash = sorted(sim.oram.stash.blocks())
    posmap = sim.oram.posmap._leaf.tolist()
    return stash, posmap


class TestLogicalIdentity:
    def test_depths_agree_with_serial(self):
        base_sim, base = _run(depth=1)
        base_fields = _logical_fields(base)
        base_state = _oram_state(base_sim)
        assert base_fields, "no logical fields extracted"
        for depth in (2, 4, 8):
            sim, result = _run(depth=depth)
            assert _logical_fields(result) == base_fields, f"depth {depth}"
            assert _oram_state(sim) == base_state, f"depth {depth}"

    def test_pipelining_reduces_exec_ns(self):
        # A reshuffle-heavy ns run must get faster, not just stay legal.
        _, serial = _run(requests=300, warmup=50, depth=1)
        _, piped = _run(requests=300, warmup=50, depth=4)
        assert piped.exec_ns < serial.exec_ns

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(depth=st.integers(2, 8),
           seed=st.integers(0, 3),
           scheme=st.sampled_from(["ns", "ring", "ab"]))
    def test_any_depth_matches_serial_reference(self, depth, seed, scheme):
        ref_sim, ref = _run(scheme=scheme, levels=7, requests=120,
                            warmup=20, seed=seed, depth=1)
        sim, result = _run(scheme=scheme, levels=7, requests=120,
                           warmup=20, seed=seed, depth=depth)
        assert _logical_fields(result) == _logical_fields(ref)
        assert _oram_state(sim) == _oram_state(ref_sim)
        assert result.stash_peak == ref.stash_peak

    def test_depth_one_is_serial_sink(self):
        sim, _ = _run(depth=1)
        from repro.sim.engine import DramSink
        assert type(sim.dram_sink) is DramSink

    def test_bad_depth_rejected(self):
        cfg = schemes.by_name("ns", 7)
        trace = spec_trace("mcf", cfg.n_real_blocks, 10, seed=0)
        with pytest.raises(ValueError, match="pipeline_depth"):
            Simulation(cfg, trace, SimConfig(pipeline_depth=0))


class TestGoldenBitIdentity:
    @pytest.fixture(scope="class")
    def baseline(self):
        with open(BASELINE) as f:
            return json.load(f)

    def test_baseline_validates(self, baseline):
        assert validate_report(baseline) == []

    def test_baseline_has_pipeline_cell(self, baseline):
        keys = {cell_key(c) for c in baseline["cells"]}
        assert "ns/mcf@p4" in keys and "ns/mcf" in keys

    def test_golden_speedup_gate(self, baseline):
        cells = {cell_key(c): c for c in baseline["cells"]}
        serial = cells["ns/mcf"]["sim"]["exec_ns"]
        piped = cells["ns/mcf@p4"]["sim"]["exec_ns"]
        assert serial / piped >= 1.5


class TestWindowedDram:
    def _model(self, window=8):
        return DramModel(DDR3_1600, window=window)

    def test_legacy_mode_unchanged_by_window_none(self):
        a = DramModel(DDR3_1600)
        b = DramModel(DDR3_1600, window=None)
        for i in range(200):
            addr = (i * 4096 + (i % 3) * 64) % (1 << 22)
            assert (a.access(addr, i % 2 == 0, i * 10.0)
                    == b.access(addr, i % 2 == 0, i * 10.0))
        assert a.stats.row_hits == b.stats.row_hits

    def test_same_direction_bursts_pack(self):
        m = self._model()
        burst = DDR3_1600.burst_ns
        s0 = m._bus_place(0, 0.0, burst, False)
        s1 = m._bus_place(0, 0.0, burst, False)
        # Same direction: back-to-back, no turnaround spacing.
        assert s1 == pytest.approx(s0 + burst)

    def test_direction_turnaround_spacing(self):
        m = self._model()
        burst = DDR3_1600.burst_ns
        s0 = m._bus_place(0, 0.0, burst, True)
        s1 = m._bus_place(0, 0.0, burst, False)
        # A read after a write waits out the write-to-read turnaround.
        assert s1 >= s0 + burst + DDR3_1600.t_wtr

    def test_backfill_into_gap(self):
        m = self._model()
        burst = DDR3_1600.burst_ns
        m._bus_place(0, 100.0, burst, False)
        before = m.stats.backfills
        s = m._bus_place(0, 0.0, burst, False)
        # The earlier-arriving burst lands in the gap before 100ns.
        assert s + burst <= 100.0
        assert m.stats.backfills == before + 1

    def test_bus_placement_is_disjoint(self):
        m = self._model()
        # Hammer one channel with mixed reads/writes at equal arrival.
        for i in range(64):
            m.access((i % 16) * 64, i % 3 == 0, 0.0)
        for busy in m._busy:
            for prev, cur in zip(busy, busy[1:]):
                assert prev[1] <= cur[0], "bus intervals overlap"

    def test_bank_placement_is_disjoint(self):
        m = self._model()
        for i in range(64):
            m.access(i * 64, False, float(i % 5))
        for ivs in m._bank_iv:
            for prev, cur in zip(ivs, ivs[1:]):
                assert prev[1] <= cur[0], "bank intervals overlap"

    def test_backfill_counted(self):
        m = self._model()
        m.access(0, False, 0.0)       # opens bank 0, row 0
        m.access(256, False, 5000.0)  # same channel, bank 1, far future
        # An early row hit on bank 0 lands on the bus *before* the
        # already-committed 5000ns burst: an out-of-order backfill.
        done = m.access(0, False, 100.0)
        assert done < 5000.0
        assert m.stats.backfills >= 1

    def test_window_admission_delays_when_full(self):
        m = self._model(window=2)
        # Saturate one channel's window with concurrent arrivals.
        comps = [m.access((i % 8) * 64, False, 0.0) for i in range(12)]
        assert m.stats.queue_depth_peak <= 2
        assert comps == sorted(comps)

    def test_queue_depth_sampled(self):
        m = self._model(window=16)
        for i in range(32):
            m.access((i % 8) * 64, False, 0.0)
        assert m.stats.queue_depth_peak >= 1
        assert m.stats.queue_depth_mean > 0


class TestTelemetryMetrics:
    def test_dram_and_pipeline_gauges(self, tmp_path):
        from repro.telemetry.handle import Telemetry
        cfg = schemes.by_name("ns", 8)
        trace = spec_trace("mcf", cfg.n_real_blocks, 150, seed=0)
        stream = str(tmp_path / "metrics.jsonl")
        tel = Telemetry(metrics_path=stream, metrics_every=50)
        sim = Simulation(cfg, trace, SimConfig(
            seed=0, warmup_requests=30, pipeline_depth=4,
        ), telemetry=tel)
        sim.run()
        tel.close()
        with open(stream) as f:
            records = [json.loads(line) for line in f]
        snaps = [r for r in records if r.get("type") == "snapshot"]
        assert snaps and "dram" in snaps[-1] and "pipeline" in snaps[-1]
        dram, pipe = snaps[-1]["dram"], snaps[-1]["pipeline"]
        assert dram["channel_busy_ns"]
        assert "queue_depth_peak" in dram and "bank_busy_peak_ns" in dram
        assert pipe["depth"] == 4
        assert max(s["pipeline"]["inflight_peak"] for s in snaps) >= 2
        assert 0.0 < pipe["dram_busy_frac"] <= 1.0
        # And the text view renders the new rows.
        from repro.telemetry.view import render_stream
        text = render_stream(stream)
        assert "dram.queue_depth" in text
        assert "pipeline.inflight" in text

    def test_serial_run_has_no_pipeline_block(self, tmp_path):
        from repro.telemetry.handle import Telemetry
        cfg = schemes.by_name("ring", 7)
        trace = spec_trace("mcf", cfg.n_real_blocks, 60, seed=0)
        stream = str(tmp_path / "serial.jsonl")
        tel = Telemetry(metrics_path=stream, metrics_every=20)
        sim = Simulation(cfg, trace, SimConfig(seed=0), telemetry=tel)
        sim.run()
        tel.close()
        with open(stream) as f:
            snaps = [json.loads(line) for line in f
                     if '"snapshot"' in line]
        assert snaps
        assert all("pipeline" not in s for s in snaps)


class TestSchema:
    def _cell(self, scheme="ns", trace="mcf", depth=None):
        sim = {
            "exec_ns": 1.0, "ns_per_access": 1.0, "stash_peak": 1,
            "reshuffles_total": 0, "reshuffles_by_level": [],
            "dram_reads": 0, "dram_writes": 0, "row_hit_rate": 0.5,
            "online_accesses": 1, "background_accesses": 0,
            "evictions": 0, "dead_blocks": 0, "remote_accesses": 0,
        }
        cell = {"scheme": scheme, "trace": trace, "wall_s": 0.1,
                "accesses_per_s": 10.0, "sim": sim}
        if depth is not None:
            cell["pipeline_depth"] = depth
        return cell

    def _doc(self, cells):
        return {
            "kind": "repro-perf-report", "schema_version": 1,
            "config": {
                "schemes": ["ns"], "benchmarks": ["mcf"], "suite": "spec",
                "levels": 8, "n_requests": 10, "warmup_requests": 2,
                "seed": 0, "repeats": 1, "smoke": True,
            },
            "environment": {"python": "x"},
            "cells": cells,
        }

    def test_cell_key_depth_suffix(self):
        assert cell_key(self._cell()) == "ns/mcf"
        assert cell_key(self._cell(depth=1)) == "ns/mcf"
        assert cell_key(self._cell(depth=4)) == "ns/mcf@p4"

    def test_pipelined_twin_not_duplicate(self):
        doc = self._doc([self._cell(), self._cell(depth=4)])
        assert validate_report(doc) == []

    def test_same_depth_twice_is_duplicate(self):
        doc = self._doc([self._cell(depth=4), self._cell(depth=4)])
        assert any("duplicate" in e for e in validate_report(doc))

    def test_bad_depth_flagged(self):
        for bad in (0, -1, True, 2.5, "4"):
            doc = self._doc([self._cell()])
            doc["cells"][0]["pipeline_depth"] = bad
            assert any("pipeline_depth" in e for e in validate_report(doc)), bad

    def test_pipeline_cells_config_type_checked(self):
        doc = self._doc([self._cell()])
        doc["config"]["pipeline_cells"] = "ns/mcf@p4"
        assert any("pipeline_cells" in e for e in validate_report(doc))
        doc["config"]["pipeline_cells"] = [["ns", "mcf", 4]]
        assert validate_report(doc) == []

    def test_deterministic_view_strips_host_fields(self):
        doc = self._doc([self._cell(depth=4)])
        view = deterministic_view(doc)
        assert "environment" not in view
        assert all("wall_s" not in c and "accesses_per_s" not in c
                   for c in view["cells"])
        assert view["cells"][0]["pipeline_depth"] == 4
        # Byte-stable across wall-time changes.
        doc2 = self._doc([self._cell(depth=4)])
        doc2["cells"][0]["wall_s"] = 99.0
        doc2["environment"] = {"python": "y"}
        assert deterministic_bytes(doc) == deterministic_bytes(doc2)


class TestServeStack:
    @staticmethod
    def _kv(depth):
        from repro.app.kvstore import ObliviousKV
        from repro.sim.engine import build_oram_stack
        stack = build_oram_stack(schemes.by_name("ns", 7), seed=0,
                                 key_domain=b"serve", store_data=True,
                                 pipeline_depth=depth)
        return ObliviousKV(stack.oram)

    def test_pipelined_stack_serves_identically(self):
        serial, piped = self._kv(1), self._kv(4)
        items = [(f"k{i}".encode(), f"value-{i}".encode()) for i in range(8)]
        for k, v in items:
            serial.put(k, v)
            piped.put(k, v)
        for k, v in items:
            assert serial.get(k) == v
            assert piped.get(k) == v

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError, match="pipeline_depth"):
            self._kv(0)
