"""Tests for the simulation harness (repro.sim)."""

import pytest

from repro.core import schemes
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.oram.stats import OpKind
from repro.sim.engine import DramSink, SimConfig, simulate
from repro.sim.results import breakdown_fractions, geomean, normalize
from repro.sim.runner import make_trace, run_schemes, run_suite, suite_benchmarks
from repro.traces.spec import spec_trace
from tests.conftest import recorded_ab_stream, replay_stream, tiny_ab_config


@pytest.fixture(scope="module")
def small_schemes():
    return schemes.main_schemes(8)


@pytest.fixture(scope="module")
def small_trace(small_schemes):
    return spec_trace("mcf", small_schemes[0].n_real_blocks, 300, seed=2)


@pytest.fixture(scope="module")
def one_result(small_schemes, small_trace):
    return simulate(small_schemes[0], small_trace, SimConfig(seed=1))


class TestDramSink:
    @pytest.fixture
    def sink(self, small_schemes):
        cfg = small_schemes[0]
        return DramSink(TreeLayout(cfg), DramModel())

    def test_clock_advances_with_ops(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access(0, 0, 0, write=False)
        sink.end_op()
        assert sink.now > 0
        assert sink.time_by_kind[OpKind.READ_PATH] > 0
        assert sink.ops_by_kind[OpKind.READ_PATH] == 1

    def test_onchip_costs_nothing(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access(0, 0, 0, write=False, onchip=True)
        sink.metadata_access(0, 0, write=False, onchip=True)
        sink.end_op()
        assert sink.now == 0.0

    def test_phase_ordering_serializes_reads_before_writes(self, sink):
        sink.begin_op(OpKind.EVICT_PATH)
        sink.data_access(0, 0, 0, write=False)
        t_read_done = sink._op_end
        sink.data_access(0, 1, 0, write=True)
        sink.end_op()
        # The write phase started only after the read completed.
        assert sink.now > t_read_done

    def test_remote_accesses_counted(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access(5, 0, 2, write=False, remote=True)
        sink.end_op()
        assert sink.remote_accesses == 1

    def test_advance(self, sink):
        sink.advance(100.0)
        assert sink.now == 100.0
        with pytest.raises(ValueError):
            sink.advance(-1.0)

    def test_nested_op_rejected(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        with pytest.raises(RuntimeError):
            sink.begin_op(OpKind.READ_PATH)

    def test_reset_measurement_keeps_clock(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access(0, 0, 0, write=False)
        sink.end_op()
        now = sink.now
        start = sink.reset_measurement()
        assert start == now
        assert sink.time_by_kind[OpKind.READ_PATH] == 0.0
        assert sink.dram.stats.reads == 0


class TestSinkProtocolTiming:
    """One recorded op stream (see ``recorded_ab_stream``) through the
    three primitives, through the scalar conveniences and through the
    buffered sink at depth 1: same clock, same attribution, same DRAM
    counters, compared with ``==``."""

    @staticmethod
    def _timed(cls=DramSink, scalar=False, **kw):
        from dataclasses import asdict

        cfg = tiny_ab_config(levels=7, treetop_levels=2)
        sink = cls(TreeLayout(cfg, metadata_blocks=2), DramModel(), **kw)
        replay_stream(sink, recorded_ab_stream(), scalar=scalar)
        dram = sink.dram
        return {
            "now": sink.now,
            "time_by_kind": sink.time_by_kind,
            "ops_by_kind": sink.ops_by_kind,
            "readpath_latencies": sink.readpath_latencies,
            "remote_accesses": sink.remote_accesses,
            "stats": asdict(dram.stats),
            "channel_busy_ns": dram.channel_busy_ns,
            "bank_busy_ns": dram.bank_busy_ns,
        }

    def test_primitives_equal_scalar_conveniences(self):
        batched = self._timed()
        assert batched == self._timed(scalar=True)
        assert batched["remote_accesses"] > 0
        assert batched["stats"]["stalled_ns"] == 12.5
        assert batched["stats"]["refreshes"] > 0

    def test_pipelined_depth_one_is_the_serial_sink(self):
        from repro.core.pipeline import PipelinedDramSink

        serial = self._timed()
        assert self._timed(PipelinedDramSink, depth=1) == serial
        assert self._timed(PipelinedDramSink, scalar=True, depth=1) == serial


class TestSimulate:
    def test_result_is_populated(self, one_result, small_trace):
        r = one_result
        assert r.scheme == "Baseline"
        assert r.trace == "mcf"
        assert r.requests == len(small_trace)
        assert r.exec_ns > 0
        assert r.dram_reads > 0 and r.dram_writes > 0
        assert 0 < r.row_hit_rate < 1
        assert r.online_accesses == len(small_trace)
        assert r.bandwidth_gbps > 0
        assert sum(r.reshuffles_by_level) > 0

    def test_time_breakdown_sums_sensibly(self, one_result):
        fr = breakdown_fractions(one_result)
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["readPath"] > 0
        assert fr["evictPath"] > 0

    def test_warmup_excluded(self, small_schemes, small_trace):
        cfg = small_schemes[0]
        full = simulate(cfg, small_trace, SimConfig(seed=1))
        part = simulate(cfg, small_trace,
                        SimConfig(seed=1, warmup_requests=150))
        assert part.requests == len(small_trace) - 150
        assert part.exec_ns < full.exec_ns

    def test_deterministic(self, small_schemes, small_trace):
        cfg = small_schemes[0]
        a = simulate(cfg, small_trace, SimConfig(seed=9))
        b = simulate(cfg, small_trace, SimConfig(seed=9))
        assert a.exec_ns == b.exec_ns
        assert a.dram_reads == b.dram_reads

    def test_extension_ratio_only_for_ab_schemes(self, small_schemes,
                                                 small_trace):
        by_name = {c.name: c for c in small_schemes}
        base = simulate(by_name["Baseline"], small_trace, SimConfig(seed=1))
        ab = simulate(by_name["AB"], small_trace, SimConfig(seed=1))
        assert base.extension_ratio is None
        assert ab.extension_ratio is not None

    def test_check_invariants_flag(self, small_schemes, small_trace):
        simulate(small_schemes[-1], small_trace,
                 SimConfig(seed=1, check_invariants=True))

    def test_remote_accesses_only_under_dr(self, small_schemes, small_trace):
        by_name = {c.name: c for c in small_schemes}
        ns = simulate(by_name["NS"], small_trace, SimConfig(seed=1))
        dr = simulate(by_name["DR"], small_trace, SimConfig(seed=1))
        assert ns.remote_accesses == 0
        assert dr.remote_accesses > 0

    def test_to_dict(self, one_result):
        d = one_result.to_dict()
        assert d["scheme"] == "Baseline"
        assert "bandwidth_gbps" in d


class TestAggregation:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_normalize(self, small_schemes, small_trace):
        results = run_schemes(small_schemes[:2], small_trace, SimConfig(seed=1))
        wrapped = {k: {"mcf": v} for k, v in results.items()}
        norm = normalize(wrapped, "exec_ns")
        assert norm["Baseline"]["mcf"] == pytest.approx(1.0)
        assert norm["Baseline"]["geomean"] == pytest.approx(1.0)
        assert norm["IR"]["mcf"] > 0

    def test_normalize_missing_baseline(self):
        with pytest.raises(KeyError):
            normalize({}, "exec_ns")


class TestRunner:
    def test_suite_benchmarks(self):
        assert "mcf" in suite_benchmarks("spec")
        assert "canneal" in suite_benchmarks("parsec")
        with pytest.raises(KeyError):
            suite_benchmarks("nope")

    def test_make_trace(self):
        t = make_trace("parsec", "canneal", 100, 20)
        assert len(t) == 20
        with pytest.raises(KeyError):
            make_trace("nope", "x", 100, 20)

    def test_run_suite_shape(self, small_schemes):
        results = run_suite(small_schemes[:2], suite="spec",
                            benchmarks=["gcc", "mcf"], n_requests=120,
                            sim=SimConfig(seed=1))
        assert set(results) == {"Baseline", "IR"}
        assert set(results["Baseline"]) == {"gcc", "mcf"}

    def test_run_suite_rejects_mismatched_blocks(self, small_schemes):
        other = schemes.baseline_cb(9)
        with pytest.raises(ValueError):
            run_suite([small_schemes[0], other], benchmarks=["gcc"],
                      n_requests=10)

    def test_run_suite_requires_schemes(self):
        with pytest.raises(ValueError):
            run_suite([], benchmarks=["gcc"])

    def test_run_suite_parallel_matches_serial(self, small_schemes):
        kw = dict(suite="spec", benchmarks=["gcc"], n_requests=80,
                  sim=SimConfig(seed=2))
        serial = run_suite(small_schemes[:2], workers=1, **kw)
        parallel = run_suite(small_schemes[:2], workers=2, **kw)
        for scheme in serial:
            assert parallel[scheme]["gcc"] == serial[scheme]["gcc"]

    def test_run_suite_keeps_every_sim_field(self, small_schemes):
        """The caller's SimConfig reaches the cells whole: robustness
        and the fault plan used to be dropped on the way."""
        from repro.faults.plan import FaultPlan
        from repro.oram.recovery import RobustnessConfig
        sim = SimConfig(
            seed=3, warmup_requests=5,
            robustness=RobustnessConfig(integrity=True),
            fault_plan=FaultPlan(seed=1, rates={"bit_flip": 0.05}),
        )
        res = run_suite(small_schemes[:1], benchmarks=["mcf"],
                        n_requests=60, sim=sim)["Baseline"]["mcf"]
        assert res.robustness is not None
        assert res.robustness["faults"]["injected"]["bit_flip"] > 0
        assert sim.warmup_requests == 5      # the caller's copy is its own
        override = run_suite(small_schemes[:1], benchmarks=["mcf"],
                             n_requests=60, warmup_requests=20, sim=sim)
        assert override["Baseline"]["mcf"].requests == 40

    def test_run_suite_parallel_rejects_observers(self, small_schemes):
        from repro.core.security import GuessingAttacker
        with pytest.raises(ValueError, match="observers"):
            run_suite(small_schemes[:1], benchmarks=["gcc"], n_requests=10,
                      workers=2,
                      sim=SimConfig(observers=[GuessingAttacker(8)]))

    def test_run_suite_rejects_bad_workers(self, small_schemes):
        with pytest.raises(ValueError, match="workers"):
            run_suite(small_schemes[:1], benchmarks=["gcc"], n_requests=10,
                      workers=0)
