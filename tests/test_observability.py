"""The fleet observability plane, end to end.

Four layers under test:

1. **Streaming SLO engine** (:mod:`repro.telemetry.slo`): windowed
   folding on the simulated clock, burn-rate alerting, and the merge
   property the fleet depends on -- folding shard-split completion
   streams through :func:`fold_completions` produces exactly the
   records and histogram of a serial in-order fold.
2. **Distributed tracing** (:mod:`repro.telemetry.fleet`): minted
   trace ids agree across process boundaries, and the merged Perfetto
   document carries per-shard process tracks and matched flow-event
   pairs that ``tools/check_trace.py`` validates.
3. **The sharded chaos campaign** (``ChaosConfig.num_shards > 1``):
   the report, the merged trace and both JSONL streams are
   byte-identical between a serial run and a ``--workers 2`` run.
4. **The ops stream** (:mod:`repro.telemetry.ops`): window
   attribution by completion stamp, and the per-shard columns, SLO
   windows and alerts ``telemetry view`` renders from it.
"""

import importlib.util
import json
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharding.control import HEARTBEAT_NS, control_block
from repro.serve.chaos import (
    ChaosCell, _mix, chaos_check, run_chaos, smoke_config,
)
from repro.serve.request import Completion
from repro.serve.resilience import ResilienceConfig
from repro.serve.schema import CHAOS, validate_chaos_report
from repro.telemetry import (
    OpsSampler,
    ShardFragment,
    SloEngine,
    SloRule,
    default_slo_rules,
    fleet_trace_doc,
    fold_completions,
    mint_trace_id,
)
from repro.telemetry.view import load_stream, render_stream


def _load_check_trace():
    tools = os.path.join(os.path.dirname(__file__), os.pardir,
                         "tools", "check_trace.py")
    spec = importlib.util.spec_from_file_location("check_trace", tools)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _malformed_trace(case):
    """A valid one-span trace broken one way, then JSON round-tripped
    (``json`` writes and reads NaN / Infinity)."""
    meta = {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "repro-sim"}}
    span = {"name": "readPath", "cat": "oram", "ph": "X", "pid": 0,
            "tid": 0, "ts": 1.0, "dur": 2.0,
            "args": {"start_ns": 1000.0, "dur_ns": 2000.0}}
    events = [meta, span]
    if case == "nan-start":
        span["ts"] = span["args"]["start_ns"] = float("nan")
    elif case == "inf-dur":
        span["dur"] = span["args"]["dur_ns"] = float("inf")
    elif case == "list-process-args":
        meta["args"] = ["repro-sim"]
    elif case == "string-start-ns":
        span["args"]["start_ns"] = "1000.0"
    elif case == "list-flow-id":
        events.append({"name": "req", "cat": "fleet.flow", "ph": "s",
                       "id": ["a"], "pid": 0, "tid": 0, "ts": 0.0})
    doc = {"displayTimeUnit": "ns", "traceEvents": events}
    return json.loads(json.dumps(doc))


_MALFORMED = {
    "nan-start": "ts must be a finite number",
    "inf-dur": "dur must be a finite number",
    "list-process-args": "process_name metadata without args.name",
    "string-start-ns": "args.start_ns must be a finite number",
    "list-flow-id": "flow id must be a string or integer",
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_check_trace_rejects_malformed(case, tmp_path, capsys):
    """Non-finite numbers are findings; malformed events are one finding
    line each and ``main`` exits 1, never with a traceback."""
    check = _load_check_trace()
    doc = _malformed_trace(case)
    finding = _MALFORMED[case]
    errors = check.validate_trace(doc)
    assert len(errors) == 1 and finding in errors[0], errors
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert check.main([str(path)]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def _stub_stack(occupancy):
    # The minimal object graph OpsSampler reads: kv.oram.stash.occupancy
    # and kv.oram.ext (None = no DeadQ extension).
    oram = types.SimpleNamespace(
        stash=types.SimpleNamespace(occupancy=occupancy), ext=None,
    )
    return types.SimpleNamespace(kv=types.SimpleNamespace(oram=oram))


def _comp(rid, done_ns, status="ok", arrival_ns=None, latency_ns=100.0):
    arrival = done_ns - latency_ns if arrival_ns is None else arrival_ns
    return Completion(
        rid=rid, op="get", key=b"k%d" % rid, value=b"v",
        ok=status == "ok", arrival_ns=arrival,
        start_ns=arrival + (done_ns - arrival) / 2, done_ns=done_ns,
        accesses=1, status=status,
    )


# ------------------------------------------------------------- SLO engine

class TestSloRules:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO rule kind"):
            SloRule("r", "latency_p42", 1.0)

    def test_fraction_kind_bounded(self):
        with pytest.raises(ValueError, match="fraction"):
            SloRule("r", "availability", 1.5)

    def test_default_rules_clamp_floor(self):
        rules = {r.name: r for r in default_slo_rules(min_availability=1.0)}
        assert rules["availability"].threshold < 1.0
        rules = {r.name: r for r in default_slo_rules(min_availability=0.0)}
        assert rules["availability"].threshold > 0.0

    def test_detection_rule_opt_in(self):
        kinds = {r.kind for r in default_slo_rules(detection=True)}
        assert "detection_rate" in kinds
        kinds = {r.kind for r in default_slo_rules(detection=False)}
        assert "detection_rate" not in kinds


class TestSloEngine:
    def test_windows_close_on_crossing(self):
        eng = SloEngine(default_slo_rules(), window_ns=100.0)
        for ns in (10.0, 20.0, 150.0, 460.0):
            eng.observe(ns, True, 50.0)
        summary = eng.finish(500.0)
        windows = [r for r in eng.records if r["type"] == "slo_window"]
        assert [w["window"] for w in windows] == [0, 1, 4]
        assert [w["requests"] for w in windows] == [2, 1, 1]
        assert summary["windows"] == 3
        assert summary["requests"] == 4
        assert summary["availability"] == 1.0

    def test_out_of_order_rejected(self):
        eng = SloEngine(default_slo_rules(), window_ns=100.0)
        eng.observe(50.0, True, 10.0)
        with pytest.raises(ValueError, match="time-ordered"):
            eng.observe(40.0, True, 10.0)

    def test_availability_burn_alert(self):
        # Floor 0.9 -> budget 0.1. A window at availability 0.5 burns
        # 5x; with burn_alert 1.0 that must alert.
        eng = SloEngine(
            (SloRule("avail", "availability", 0.9),), window_ns=100.0,
        )
        for i in range(10):
            eng.observe(float(i), i < 5, 10.0)
        eng.finish(200.0)
        alerts = [r for r in eng.records if r["type"] == "slo_alert"]
        assert len(alerts) == 1
        assert alerts[0]["rule"] == "avail"
        assert alerts[0]["value"] == 0.5
        assert alerts[0]["burn"] == pytest.approx(5.0)

    def test_no_alert_above_floor(self):
        eng = SloEngine(
            (SloRule("avail", "availability", 0.9),), window_ns=100.0,
        )
        for i in range(20):
            eng.observe(float(i), i != 0, 10.0)   # availability 0.95
        eng.finish(200.0)
        assert eng.alerts == []

    def test_latency_burn_alert(self):
        eng = SloEngine(
            (SloRule("p99", "latency_p99", 1_000.0),), window_ns=100.0,
        )
        served = [90_000.0 + 1_000.0 * i * i for i in range(10)]
        for i, latency in enumerate(served):
            eng.observe(float(i), True, latency)
        eng.finish(200.0)
        assert [a["rule"] for a in eng.alerts] == ["p99"]
        assert eng.alerts[0]["burn"] > 1.0
        window = next(r for r in eng.records if r["type"] == "slo_window")
        assert window["p99_ns"] == float(np.percentile(served, 99))
        assert window["p50_ns"] == float(np.percentile(served, 50))

    def test_detection_alert_at_finish(self):
        eng = SloEngine(default_slo_rules(detection=True), window_ns=100.0)
        eng.observe(10.0, True, 50.0)
        eng.finish(100.0, detection={"tamper_injected": 4,
                                     "tamper_detected": 2, "rate": 0.5})
        assert [a["kind"] for a in eng.alerts] == ["detection_rate"]

    def test_trace_instants_match_alerts(self):
        eng = SloEngine(
            (SloRule("avail", "availability", 0.9),), window_ns=100.0,
        )
        for i in range(10):
            eng.observe(float(i), False, 10.0)
        eng.finish(200.0)
        instants = eng.trace_instants(tid=2)
        assert len(instants) == len(eng.alerts) == 1
        inst = instants[0]
        assert inst["ph"] == "i" and inst["s"] == "t"
        assert inst["cat"] == "fleet.slo"
        assert inst["ts"] == pytest.approx(eng.alerts[0]["ns"] / 1000.0)


@st.composite
def completion_streams(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    comps = []
    for rid in range(n):
        done = draw(st.floats(min_value=0.0, max_value=1_000.0,
                              allow_nan=False, allow_infinity=False))
        ok = draw(st.booleans())
        latency = draw(st.floats(min_value=1.0, max_value=500.0,
                                 allow_nan=False, allow_infinity=False))
        comps.append(_comp(rid, done, "ok" if ok else "failed",
                           latency_ns=latency))
    shard_of = [draw(st.integers(min_value=0, max_value=3)) for _ in comps]
    return comps, shard_of


class TestSloMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(completion_streams())
    def test_fleet_fold_equals_serial_fold(self, stream):
        """The tentpole determinism property, at the SLO layer.

        Partition a completion stream over 4 "shards" arbitrarily,
        hand the engine the shard-concatenated (unsorted) stream via
        ``fold_completions``, and every window record, alert and
        served latency must equal a serial engine fed the globally
        time-ordered stream one completion at a time.
        """
        comps, shard_of = stream
        serial = SloEngine(default_slo_rules(), window_ns=100.0)
        for c in sorted(comps, key=lambda c: (c.done_ns, c.rid)):
            serial.observe(c.done_ns, c.status == "ok", c.latency_ns)
        serial_summary = serial.finish(1_000.0)

        shards = [[] for _ in range(4)]
        for c, s in zip(comps, shard_of):
            shards[s].append(c)
        merged = SloEngine(default_slo_rules(), window_ns=100.0)
        fold_completions(merged, [c for sh in shards for c in sh])
        merged_summary = merged.finish(1_000.0)

        assert merged.records == serial.records
        assert merged_summary == serial_summary
        assert merged.served == serial.served


# ------------------------------------------------------ distributed tracing

class TestTraceIds:
    def test_deterministic_across_minters(self):
        assert mint_trace_id(7, 42) == mint_trace_id(7, 42)

    def test_distinct_per_request_and_seed(self):
        ids = {mint_trace_id(seed, rid)
               for seed in range(4) for rid in range(50)}
        assert len(ids) == 200

    def test_id_shape(self):
        tid = mint_trace_id(0, 0)
        assert len(tid) == 16
        int(tid, 16)   # hex


class TestFleetTraceDoc:
    def _fragments(self):
        frags = []
        for shard in range(2):
            comps = [
                _comp(rid, done_ns=100.0 * (rid + 1))
                for rid in range(shard, 6, 2)
            ]
            frags.append(ShardFragment(
                shard=shard,
                completions=comps,
                spans=[("readPath", 10.0 + shard, 40.0)],
                events=[{"kind": "degraded_exit", "ns": 90.0,
                         "enter_ns": 50.0, "rebuilt": 1,
                         "journal_replayed": 0}],
            ))
        return frags

    def test_validates_with_flows_and_processes(self):
        doc = fleet_trace_doc(self._fragments(), seed=3)
        check = _load_check_trace()
        errors = check.validate_trace(
            doc, require_kinds=["route", "readPath"],
            min_spans=6, require_flows=6,
            require_process=["fleet-router", "shard-0", "shard-1"],
        )
        assert errors == []

    def test_flow_pairs_share_minted_ids(self):
        doc = fleet_trace_doc(self._fragments(), seed=3)
        starts = {e["id"] for e in doc["traceEvents"] if e["ph"] == "s"}
        finishes = {e["id"] for e in doc["traceEvents"] if e["ph"] == "f"}
        assert starts == finishes == {mint_trace_id(3, rid)
                                      for rid in range(6)}

    def test_shard_events_on_own_process(self):
        doc = fleet_trace_doc(self._fragments(), seed=3)
        for e in doc["traceEvents"]:
            if e.get("cat") in ("serve.oram", "serve.queue", "oram"):
                assert e["pid"] == 1 + e["args"].get("shard", e["pid"] - 1)
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0, 1, 2}

    def test_control_and_slo_tracks(self):
        control = control_block({
            0: (0.0, 7 * HEARTBEAT_NS, [{
                "enter_ns": 1.5 * HEARTBEAT_NS,
                "exit_ns": 2.5 * HEARTBEAT_NS,
            }]),
            1: (0.0, 7 * HEARTBEAT_NS, []),
        }, ())
        eng = SloEngine((SloRule("avail", "availability", 0.9),), 100.0)
        for i in range(10):
            eng.observe(float(i), False, 10.0)
        eng.finish(700.0)
        doc = fleet_trace_doc(
            self._fragments(), seed=3,
            control=control,
            slo_instants=eng.trace_instants(tid=2),
        )
        check = _load_check_trace()
        assert check.validate_trace(doc) == []
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        names = {e["name"] for e in instants}
        assert "shard0:degraded" in names
        assert "slo:avail" in names
        control_instants = [e for e in instants
                            if e.get("cat") == "fleet.control"]
        assert all(e["tid"] == 1 and e["pid"] == 0
                   for e in control_instants)

    def test_merge_is_pure_function_of_fragments(self):
        a = fleet_trace_doc(self._fragments(), seed=3)
        b = fleet_trace_doc(list(reversed(self._fragments())), seed=3)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# --------------------------------------------------------- sharded chaos

def tiny_chaos(**overrides):
    """Two fast cells (one faultless, one tampered) on a 2-shard fleet."""
    wl = _mix("obs-mix", 120, 48)
    cells = (
        ChaosCell(
            name="baseline", workload=wl, faults=None,
            resilience=ResilienceConfig(), min_availability=1.0,
        ),
        smoke_config().cells[2],   # the tamper cell: degraded episodes
    )
    return smoke_config(cells=cells, num_shards=2, **overrides)


class TestShardedChaos:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        out = {}
        for tag, workers in (("serial", 1), ("fanned", 2)):
            d = tmp_path_factory.mktemp(tag)
            cfg = tiny_chaos(
                workers=workers,
                trace_out=str(d / "trace.json"),
                slo_out=str(d / "slo.jsonl"),
                ops_out=str(d / "ops.jsonl"),
            )
            doc = run_chaos(cfg)
            out[tag] = {
                "doc": doc,
                "trace": (d / "trace.json").read_bytes(),
                "slo": (d / "slo.jsonl").read_bytes(),
                "ops": (d / "ops.jsonl").read_bytes(),
                "ops_path": str(d / "ops.jsonl"),
            }
        return out

    def test_report_validates_and_gates(self, artifacts):
        doc = artifacts["serial"]["doc"]
        assert validate_chaos_report(doc) == []
        assert chaos_check(doc) == []

    def test_report_has_fleet_blocks(self, artifacts):
        for cell in artifacts["serial"]["doc"]["cells"]:
            sim = cell["sim"]
            assert [s["shard"] for s in sim["shards"]] == [0, 1]
            assert sim["control"]["all_healthy"] is True
            assert sim["slo"]["requests"] == sim["completions"]
            assert sim["slo"]["p50_ns"] == sim["latency_ns"]["p50"]
            assert sim["slo"]["p99_ns"] == sim["latency_ns"]["p99"]
            assert sum(s["requests"] for s in sim["shards"]) \
                == sim["requests"]

    def test_sim_ns_is_the_slowest_shard_window(self, artifacts):
        # Each shard's clock starts where its own population left it, so
        # the makespan is the slowest shard's end - start (run_fleet's
        # rule), never a difference across two shards' clocks.
        for cell in artifacts["serial"]["doc"]["cells"]:
            sim = cell["sim"]
            assert sim["sim_ns"] == max(
                s["end_ns"] - s["start_ns"] for s in sim["shards"]
            ), cell["name"]

    def test_tamper_cell_degrades_and_detects(self, artifacts):
        cells = {c["name"]: c for c in artifacts["serial"]["doc"]["cells"]}
        sim = cells["tamper"]["sim"]
        assert sim["episodes"]["count"] >= 1
        assert sim["detection"]["rate"] == 1.0
        states = {
            t["to"]
            for s in sim["control"]["shards"] for t in s["transitions"]
        }
        assert "degraded" in states and "rebuilding" in states

    def test_control_logs_every_episode(self, artifacts):
        for cell in artifacts["serial"]["doc"]["cells"]:
            sim = cell["sim"]
            enters = sum(
                t["event"] == "degraded_enter"
                for s in sim["control"]["shards"] for t in s["transitions"]
            )
            assert enters == sum(s["episodes"] for s in sim["shards"]) \
                == sim["episodes"]["count"], cell["name"]

    def test_serial_vs_workers_byte_identical(self, artifacts):
        serial, fanned = artifacts["serial"], artifacts["fanned"]
        assert CHAOS.deterministic_bytes(serial["doc"]) \
            == CHAOS.deterministic_bytes(fanned["doc"])
        for kind in ("trace", "slo", "ops"):
            assert serial[kind] == fanned[kind], f"{kind} stream differs"

    def test_fleet_trace_validates(self, artifacts):
        doc = json.loads(artifacts["serial"]["trace"])
        check = _load_check_trace()
        errors = check.validate_trace(
            doc, require_kinds=["route"], min_spans=100,
            require_flows=100,
            require_process=["fleet-router", "shard-0", "shard-1"],
        )
        assert errors == []

    def test_view_deterministic(self, artifacts):
        path = artifacts["serial"]["ops_path"]
        first = render_stream(path)
        assert render_stream(path) == first
        assert "Fleet snapshots: tamper" in first

    def test_view_renders_fleet_columns(self, artifacts):
        text = render_stream(artifacts["serial"]["ops_path"])
        assert "Fleet snapshots: baseline" in text
        assert "s0" in text and "s1" in text
        assert "stash (peak)" in text


# ------------------------------------------------------------- ops stream

class TestOpsConsole:
    def test_view_has_alert_row(self, tmp_path):
        records = [{"type": "meta"}] + [
            {"type": "snapshot", "cell": "c", "shard": s, "window": w,
             "ns": 100.0 * (w + 1), "state": "ok", "queue_depth": s,
             "stash_occupancy": 2, "deadq_depth": 0,
             "journal_depth": 0, "window_requests": 4, "window_ok": 4,
             "throughput_rps": 1e4, "p50_ns": 100.0, "p99_ns": 500.0}
            for w in range(2) for s in (1, 0)
        ] + [
            {"type": "slo_alert", "cell": "c", "window": 1,
             "rule": "avail", "value": 0.5, "threshold": 0.9, "burn": 5.0},
        ]
        path = tmp_path / "ops.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        text = render_stream(str(path))
        assert "Fleet snapshots: c" in text
        header = next(ln for ln in text.splitlines() if "metric" in ln)
        assert header.index("s0") < header.index("s1")
        alerts = text.split("SLO alerts (error-budget burn)")[1]
        assert alerts.split()[-6:] == ["avail", "c", "1", "0.500", "0.900",
                                       "5.000"]

    def test_sampler_attributes_by_done_ns(self):
        sampler = OpsSampler("c", 0, 100.0, _stub_stack(occupancy=3))
        comps = [_comp(0, 50.0), _comp(1, 250.0), _comp(2, 150.0)]
        sampler.sample(10.0, 1, comps[:1], False, 0)
        # A clock jump over three windows: each completion must land
        # in the window its done_ns falls in, not the first closed.
        sampler.sample(310.0, 0, comps, False, 0)
        sampler.finish(310.0, comps)
        by_window = {r["window"]: r for r in sampler.records}
        assert by_window[0]["window_requests"] == 1   # done 50
        assert by_window[1]["window_requests"] == 1   # done 150
        assert by_window[2]["window_requests"] == 1   # done 250
        assert by_window[2]["requests"] == 3
        assert by_window[0]["stash_occupancy"] == 3

    def test_sampler_never_writes(self):
        # load_stream round-trip: records are pure JSON.
        sampler = OpsSampler("c", 1, 100.0, _stub_stack(occupancy=0))
        sampler.sample(10.0, 0, [], False, 0)
        sampler.finish(110.0, [])
        for record in sampler.records:
            json.dumps(record)


class TestStreamLoader:
    def test_load_stream_accepts_slo_records(self, tmp_path):
        path = tmp_path / "s.jsonl"
        lines = [
            {"type": "meta", "kind": "repro-slo-stream"},
            {"type": "slo_window", "window": 0, "requests": 2},
            {"type": "slo_alert", "window": 0, "rule": "avail"},
            {"type": "summary"},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in lines)
        )
        stream = load_stream(str(path))
        assert [r["type"] for r in stream["slo"]] \
            == ["slo_window", "slo_alert"]

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            load_stream(str(path))

    def test_render_slo_windows_without_alerts(self, tmp_path):
        # A healthy SLO stream (windows closed, nothing alerted) must
        # still render its per-cell window summary, not just the meta.
        path = tmp_path / "s.jsonl"
        lines = [
            {"type": "meta", "kind": "repro-slo-stream"},
            {"type": "slo_window", "cell": "c", "window": 0,
             "requests": 4, "availability": 1.0, "p99_ns": 1500.0,
             "burn": {"latency-p99": 0.25}},
            {"type": "slo_window", "cell": "c", "window": 1,
             "requests": 6, "availability": 0.5, "p99_ns": 500.0,
             "burn": {"latency-p99": 0.75, "availability": 0.9}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        text = render_stream(str(path))
        assert "SLO windows" in text
        assert "0.9x availability" in text     # worst burn across windows
        assert "0.500" in text                 # min availability
        assert "SLO alerts" not in text
