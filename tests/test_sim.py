"""Tests for the simulation harness (repro.sim)."""

import pytest

from repro.core import schemes
from repro.mem.address_map import (
    BANK_MASK, BANK_SHIFT, CHANNEL_MASK, LINE_BYTES,
)
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.oram.stats import OpKind
from repro.sim.engine import DRAM_WINDOW, DramSink, SimConfig, simulate
from repro.sim.results import breakdown_fractions, geomean
from repro.sim.runner import make_trace, run_suite, suite_benchmarks
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

    def test_sink_issues_the_layout_addresses(self, small_schemes):
        """The sink inlines the layout's address math as cache-line
        numbers; they must be the layout's addresses over 64B."""
        layout = TreeLayout(small_schemes[0], metadata_blocks=2)
        issued = []

        class Capture(DramSink):
            def _issue(self, lines, write, phase, buckets):
                issued.extend(lines)

        sink = Capture(layout, DramModel())
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(5, 3, 2, False, False)], write=False)
        sink.metadata_access_many([(5, 2, False)], write=False, blocks=2)
        sink.end_op()
        meta = layout.meta_base + 5 * layout.meta_stride
        assert issued == [(layout.first_byte[5] + 3 * 64) // LINE_BYTES,
                          meta // LINE_BYTES,
                          (meta + 64) // LINE_BYTES]

    def test_windowed_burst_leaves_its_gaps_to_other_banks(
            self, small_schemes):
        """A reshuffle's read burst is Z' ordinary requests to one line.
        Under a window each holds the bus for its own burst only, so a
        read to another bank of the channel, arriving with the burst,
        fits between two of its bursts: it completes before the
        burst's last read. The sink may send both batches as one call,
        so the spy serves each call one line at a time (the same
        schedule: ``tests/test_properties_mem.py``) and keeps every
        request's completion."""
        cfg = small_schemes[0]
        layout = TreeLayout(cfg)
        sink = DramSink(layout, DramModel(window=DRAM_WINDOW))
        done = []
        access_lines = sink.dram.access_lines

        def spy(lines, write, arrival_ns):
            done.extend(access_lines([line], write, arrival_ns)
                        for line in lines)
            return max(done[-len(lines):])

        sink.dram.access_lines = spy

        def channel_bank(bucket, slot):
            line = int(layout.first_byte[bucket]) // LINE_BYTES + slot
            return line & CHANNEL_MASK, (line >> BANK_SHIFT) & BANK_MASK

        lv = cfg.levels - 1
        bucket = cfg.n_buckets - 1
        z = cfg.geometry[lv].z_real
        channel, bank = channel_bank(bucket, 0)
        other = next(
            (b, s) for b in range(cfg.n_buckets) for s in range(2)
            if channel_bank(b, s)[0] == channel
            and channel_bank(b, s)[1] != bank
        )
        sink.begin_op(OpKind.EVICT_PATH)
        sink.data_access_many([(bucket, 0, lv, False, False)] * z,
                              write=False)
        sink.data_access_many([(*other, lv, False, False)], write=False)
        sink.end_op()
        assert z > 1 and len(done) == z + 1
        assert done[-1] < max(done[:-1])

    def test_sink_rejects_blocks_that_are_not_one_line(self):
        """A slot is one 64B line to the timed sink."""
        with pytest.raises(ValueError, match="64B blocks"):
            DramSink(TreeLayout(tiny_ab_config(block_bytes=128)), DramModel())

    def test_clock_advances_with_ops(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(0, 0, 0, False, False)], False)
        sink.end_op()
        assert sink.now > 0
        assert sink.time_by_kind[OpKind.READ_PATH] > 0
        assert sink.ops_by_kind[OpKind.READ_PATH] == 1

    def test_onchip_costs_nothing(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(0, 0, 0, True, False)], False)
        sink.metadata_access_many([(0, 0, True)], False)
        sink.end_op()
        assert sink.now == 0.0

    def test_phase_ordering_serializes_reads_before_writes(self, sink):
        sink.begin_op(OpKind.EVICT_PATH)
        sink.data_access_many([(0, 0, 0, False, False)], False)
        t_read_done = sink._op_end
        sink.data_access_many([(0, 1, 0, False, False)], True)
        sink.end_op()
        # The write phase started only after the read completed.
        assert sink.now > t_read_done

    def test_remote_accesses_counted(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(5, 0, 2, False, True)], False)
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
        sink.data_access_many([(0, 0, 0, False, False)], False)
        sink.end_op()
        now = sink.now
        start = sink.reset_measurement()
        assert start == now
        assert sink.time_by_kind[OpKind.READ_PATH] == 0.0
        assert sink.dram.stats.reads == 0


class TestSinkProtocolTiming:
    """One recorded op stream (see ``recorded_ab_stream``) through the
    two primitives, through the scalar conveniences, as the
    controller's whole bucket reports and through the buffered sink:
    same clock, same attribution, same DRAM counters, compared with
    ``==``."""

    @staticmethod
    def _timed(cls=DramSink, whole=False, scalar=False, base=False,
               window=None, **kw):
        from dataclasses import asdict

        cfg = tiny_ab_config(levels=7, treetop_levels=2)
        sink = cls(TreeLayout(cfg, metadata_blocks=2),
                   DramModel(window=window), **kw)
        replay_stream(sink, recorded_ab_stream(whole=whole),
                      scalar=scalar, base=base)
        dram = sink.dram
        metrics = getattr(sink, "pipeline_metrics", None)
        return {
            "now": sink.now,
            "time_by_kind": sink.time_by_kind,
            "ops_by_kind": sink.ops_by_kind,
            "readpath_latencies": sink.readpath_latencies,
            "remote_accesses": sink.remote_accesses,
            "stats": asdict(dram.stats),
            "channel_busy_ns": dram.channel_busy_ns,
            "bank_busy_ns": dram.bank_busy_ns,
            "pipeline": metrics() if metrics is not None else None,
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
        assert self._timed(PipelinedDramSink, depth=1)["pipeline"]
        for kw in ({}, {"scalar": True}, {"whole": True}):
            got = self._timed(PipelinedDramSink, depth=1, **kw)
            got["pipeline"] = None
            assert got == serial, kw

    def test_whole_stream_holds_every_report_shape(self):
        stream = recorded_ab_stream(whole=True)
        reports = [args for name, args in stream if name == "bucket_access"]
        # (bucket, level, onchip, write, slots, hosts, blocks)
        assert any(r[2] for r in reports), "no on-chip bucket"
        assert any(r[5] for r in reports), "no rented host"
        assert any(not r[3] and len(r[4]) > 1 for r in reports)
        assert any(name == "metadata_access_prepared" for name, _ in stream)

    @pytest.mark.parametrize("depth", [None, 1, 4])
    def test_native_bucket_reports_equal_their_decomposition(self, depth):
        """The timed sink's own bucket report and prepared metadata
        batch time exactly as the primitive calls ``MemorySink``
        decomposes them into: serially, and buffered at depth 1 and at
        depth 4 on the windowed model."""
        from repro.core.pipeline import PipelinedDramSink

        kw = {} if depth is None else {
            "cls": PipelinedDramSink, "depth": depth,
            "window": DRAM_WINDOW if depth > 1 else None}
        native = self._timed(whole=True, **kw)
        assert native == self._timed(whole=True, base=True, **kw)
        assert native == self._timed(**kw)
        assert native["remote_accesses"] > 0
        if depth == 4:
            assert native["pipeline"]["inflight_peak"] > 1

    def test_a_stall_sends_the_held_lines_first(self):
        """Two batches of one phase around a stall: the first batch's
        completion is extended by the stall, and the second arrives at
        the same phase start. Holding both back as one call across the
        stall would extend only the operation's start."""
        layout = TreeLayout(tiny_ab_config(levels=7, treetop_levels=2))
        sink = DramSink(layout, DramModel())
        twin = DramModel()
        lv = 6
        first = [(b, 0, lv, False, False) for b in range(63, 67)]
        second = [(b, 1, lv, False, False) for b in range(67, 69)]
        sink.begin_op(OpKind.EVICT_PATH)
        sink.data_access_many(first, write=False)
        sink.stall(1000.0)
        sink.data_access_many(second, write=False)
        sink.end_op()

        def lines(items):
            return [int(layout.first_byte[b]) // LINE_BYTES + s
                    for b, s, *_ in items]

        end = twin.access_lines(lines(first), False, 0.0) + 1000.0
        end = max(end, twin.access_lines(lines(second), False, 0.0))
        assert sink.now == end
        assert sink.time_by_kind[OpKind.EVICT_PATH] == end


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

    def test_warmup_must_leave_requests_to_measure(self, small_schemes,
                                                   small_trace):
        cfg = small_schemes[0]
        n = len(small_trace)
        for warmup in (n, n + 1):
            with pytest.raises(ValueError, match="warmup_requests"):
                simulate(cfg, small_trace,
                         SimConfig(seed=1, warmup_requests=warmup))
        last = simulate(cfg, small_trace,
                        SimConfig(seed=1, warmup_requests=n - 1))
        assert last.requests == 1

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
        assert res.requests == 55            # past the caller's warm-up

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
