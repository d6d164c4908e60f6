"""Self-test of the e2e benchmark harness (``pytest benchmarks/e2e -q``).

Not part of the tier-1 suite (``testpaths`` is ``tests``): it checks the
measuring instrument, not the program.
"""

import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import run

run.import_program()

import oracle  # noqa: E402
import tracer as tr  # noqa: E402

HERE = Path(__file__).resolve().parent


class ScriptedClock:
    """A clock that returns the next scripted reading on every call."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


class TestSelfTime:
    def test_nested_tree_sums_to_root(self):
        # a[0..10] { b[1..5] { c[2..4] }  d[6..9] }
        t = tr.Tracer(clock=ScriptedClock([0, 1, 2, 4, 5, 6, 9, 10]))
        a = t.enter("a")
        b = t.enter("b")
        c = t.enter("c")
        t.exit(c)
        t.exit(b)
        d = t.enter("d")
        t.exit(d)
        assert t.exit(a) == 10
        assert {k: v[0] for k, v in t.layers.items()} == {
            "a": 3, "b": 2, "c": 2, "d": 3,
        }
        assert t.layer_sum_s() == 10

    def test_same_layer_recursion_is_not_double_counted(self):
        t = tr.Tracer(clock=ScriptedClock([0, 2, 3, 7]))
        outer = t.enter("x")
        inner = t.enter("x")
        t.exit(inner)
        t.exit(outer)
        assert t.self_s("x") == 7 and t.calls("x") == 2

    def test_raw_spans_name_parent_and_op(self):
        t = tr.Tracer(clock=ScriptedClock([0, 1, 2, 3]))
        step = t.wrap_op(lambda: t.wrap(lambda: None, "inner")(), "outer")
        step()
        assert t.raw == [("outer", 0, 3, -1, 0), ("inner", 1, 2, 0, 0)]
        events = t.chrome_trace()["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        assert events[1]["args"] == {"op": 0, "parent": 0}

    def test_mismatched_exit_is_an_error(self):
        t = tr.Tracer()
        a = t.enter("a")
        t.enter("b")
        with pytest.raises(RuntimeError):
            t.exit(a)


class Seam:
    def __init__(self):
        self.level = 3

    @property
    def doubled(self):
        return self.level * 2

    def bump(self, by=1):
        self.level += by
        return self.level

    def boom(self):
        raise KeyError("inner failure")


class TestProxy:
    def test_forwards_attributes_setters_and_exceptions(self):
        t = tr.Tracer()
        inner = Seam()
        proxy = tr.LayerProxy(inner, "seam", t)
        assert proxy.level == 3 and proxy.doubled == 6
        proxy.level = 5                     # lands on the wrapped object
        assert inner.level == 5 and proxy.doubled == 10
        assert proxy.bump(by=2) == 7 and inner.level == 7
        with pytest.raises(KeyError, match="inner failure"):
            proxy.boom()
        assert t._stack == []               # the failed span was closed
        assert t.calls("seam") == 2
        assert t.method_calls == {"seam.bump": 1, "seam.boom": 1}
        with pytest.raises(AttributeError):
            proxy.missing

    def test_sink_proxy_clocks_op_brackets_by_kind(self):
        t = tr.Tracer(clock=ScriptedClock([0, 1, 2, 5, 6, 7]))
        log = []
        sink = SimpleNamespace(
            begin_op=lambda kind: log.append(kind),
            end_op=lambda: log.append("end"),
        )
        proxy = tr.SinkProxy(sink, "mem", t)
        proxy.begin_op("readPath")
        proxy.end_op()
        assert log == ["readPath", "end"]
        assert t.op_kind_metrics()["ring.readpath_s"] == 7
        assert t.calls("mem") == 2

    def test_patch_and_unpatch_restore_the_program(self):
        t = tr.Tracer()
        obj = Seam()
        t.patch(obj, "bump", t.wrap(obj.bump, "seam", "bump"))
        t.patch(obj, "level", 9)
        obj.bump()
        t.unpatch()
        assert "bump" not in vars(obj) and obj.level == 3
        obj.bump()                          # the class's own method again
        assert obj.level == 4 and t.calls("seam") == 1


def _l6_simulation():
    from repro.core import schemes
    from repro.sim.engine import SimConfig, Simulation
    from repro.sim.runner import make_trace

    cfg = schemes.by_name("ab", 6)
    trace = make_trace("spec", "mcf", cfg.n_real_blocks, 400, seed=3)
    return Simulation(cfg, trace, SimConfig(warmup_requests=50))


def test_proxies_leave_an_l6_stack_identical():
    plain = _l6_simulation()
    plain.run()
    traced = _l6_simulation()
    t = tr.Tracer()
    tr.instrument_simulation(traced, t)
    while traced.step():
        pass
    t.unpatch()
    assert traced.result() == plain.result()
    assert traced.oram.sink is traced.dram_sink
    assert t.calls("sim.engine") == 401     # 400 steps + the exhausted one
    assert t.calls("core.remote") > 0 and t.calls("mem") > 0
    assert t.self_s("oram.ring") > 0
    traced.oram.check_invariants()


class TestOracle:
    @staticmethod
    def _req(rid, op, key, value=None):
        return SimpleNamespace(rid=rid, op=op, key=key, value=value,
                               arrival_ns=float(rid))

    @staticmethod
    def _done(rid, value=None, ok=True, status="ok"):
        return SimpleNamespace(rid=rid, value=value, ok=ok, status=status)

    def test_fifo_over_acknowledged_writes(self):
        reqs = [
            self._req(0, "get", b"k"), self._req(1, "put", b"k", b"new"),
            self._req(2, "put", b"k", b"shed"), self._req(3, "get", b"k"),
            self._req(4, "delete", b"k"), self._req(5, "get", b"k"),
        ]
        comps = [
            self._done(0, b"old"), self._done(1),
            self._done(2, ok=False, status="shed"), self._done(3, b"new"),
            self._done(4), self._done(5, None, ok=False),
        ]
        verdict = oracle.check_kv_answers([(b"k", b"old")], reqs, comps, 62)
        assert verdict.answered == {0, 1, 3, 4, 5}
        assert not verdict.violations and not verdict.lost

    def test_stale_answer_is_a_violation_blank_is_a_loss(self):
        reqs = [self._req(0, "put", b"k", b"new"), self._req(1, "get", b"k"),
                self._req(2, "get", b"k"), self._req(3, "get", b"j")]
        comps = [self._done(0), self._done(1, b"old"), self._done(2, b""),
                 self._done(3, b"")]
        verdict = oracle.check_kv_answers(
            [(b"k", b"old"), (b"j", b"x" * 100)], reqs, comps, 62
        )
        assert verdict.violations == 1      # rid 1: stale bytes
        assert verdict.lost == {2, 3} and verdict.loss_events == 2
        assert "request 1" in verdict.findings[0]

    def test_missing_and_duplicate_completions(self):
        reqs = [self._req(0, "get", b"k"), self._req(1, "get", b"k")]
        comps = [self._done(0, b"v"), self._done(0, b"v")]
        verdict = oracle.check_kv_answers([(b"k", b"v")], reqs, comps, 62)
        assert verdict.violations == 2

    def test_paper_space_numbers(self):
        assert oracle.check_paper_space() == []


def test_fresh_import_times_the_program_in_its_own_interpreter():
    timed = run.fresh_import()
    assert 0 < timed.quiet_s and 0 < timed.wall_s < 30


def test_quick_report_emits_every_metric(tmp_path):
    out = tmp_path / "report.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out),
         "--trace-out", str(tmp_path / "trace.json")],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"
    spec = run.load_spec()
    doc = json.loads(out.read_text())
    assert doc["problems"] == []
    assert set(doc["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, block in doc["workloads"].items():
        assert set(block["end_to_end"]) == {e["name"] for e in spec["end_to_end"]}
        assert set(block["per_layer"]) == {e["name"] for e in spec["per_layer"]}
        for metric, row in block["end_to_end"].items():
            assert row["median"] > 0, (name, metric)
        trace = json.loads((tmp_path / f"trace.{name}.json").read_text())
        assert trace["traceEvents"], name
    for metric in list(spec["end_to_end"]) + list(spec["per_layer"]):
        assert metric["name"] in proc.stdout
