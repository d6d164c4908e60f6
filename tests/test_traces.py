"""Tests for the workload substrate (repro.traces)."""

import numpy as np
import pytest

from repro.sim.runner import suite_benchmarks
from repro.traces.generator import WORKING_SET_FRACTION, SyntheticTraceGenerator
from repro.traces.parsec import PARSEC, parsec_trace
from repro.traces.spec import SPEC_CPU2017, spec_benchmarks, spec_trace
from repro.traces.trace import Trace, TraceRequest


class TestTrace:
    def make(self, reqs=None, r=1.0, w=1.0):
        reqs = reqs or [TraceRequest(0, False), TraceRequest(1, True)]
        return Trace("t", reqs, read_mpki=r, write_mpki=w)

    def test_len_and_iter(self):
        t = self.make()
        assert len(t) == 2
        assert [r.block for r in t] == [0, 1]

    def test_mpki_aggregates(self):
        t = self.make(r=2.0, w=6.0)
        assert t.total_mpki == 8.0
        assert t.write_mpki / t.total_mpki == pytest.approx(0.75)

    def test_cpu_gap_inverse_in_mpki(self):
        slow = self.make(r=0.1, w=0.0)
        fast = self.make(r=10.0, w=0.0)
        assert slow.cpu_gap_ns > fast.cpu_gap_ns * 50

    def test_instructions_per_access(self):
        t = self.make(r=1.0, w=1.0)
        assert t.instructions_per_access == pytest.approx(500.0)

    def test_rejects_zero_mpki(self):
        with pytest.raises(ValueError):
            self.make(r=0.0, w=0.0)

    def test_rejects_negative_mpki(self):
        with pytest.raises(ValueError):
            self.make(r=-1.0, w=2.0)

    def test_truncated(self):
        t = self.make()
        short = t.truncated(1)
        assert len(short) == 1
        assert short.name == t.name


class TestGenerator:
    def test_length(self):
        gen = SyntheticTraceGenerator(1000, seed=1)
        t = gen.generate("x", 500, 1.0, 1.0)
        assert len(t) == 500

    def test_blocks_in_range(self):
        gen = SyntheticTraceGenerator(100, seed=1)
        t = gen.generate("x", 1000, 1.0, 1.0)
        assert all(0 <= r.block < 100 for r in t)

    def test_working_set_respected(self):
        gen = SyntheticTraceGenerator(1000, seed=1)
        t = gen.generate("x", 3000, 1.0, 1.0)
        assert len({r.block for r in t}) <= 1000 * WORKING_SET_FRACTION

    def test_write_fraction_tracks_mpki_split(self):
        gen = SyntheticTraceGenerator(1000, seed=1)
        t = gen.generate("x", 4000, 1.0, 3.0)
        frac = sum(r.write for r in t) / len(t)
        assert frac == pytest.approx(0.75, abs=0.05)

    def test_deterministic_per_seed(self):
        gen = SyntheticTraceGenerator(1000, seed=7)
        a = gen.generate("x", 200, 1.0, 1.0)
        b = gen.generate("x", 200, 1.0, 1.0)
        assert [(r.block, r.write) for r in a] == [(r.block, r.write) for r in b]

    def test_different_seeds_differ(self):
        gen = SyntheticTraceGenerator(1000, seed=7)
        a = gen.generate("x", 200, 1.0, 1.0, seed=1)
        b = gen.generate("x", 200, 1.0, 1.0, seed=2)
        assert [r.block for r in a] != [r.block for r in b]

    def test_zipf_skews_popularity(self):
        gen = SyntheticTraceGenerator(1000, seed=3)
        t = gen.generate("x", 5000, 1.0, 1.0)
        counts = np.bincount([r.block for r in t], minlength=1000)
        top = np.sort(counts)[::-1]
        # The hottest 10 blocks draw far more than 10/500 of traffic.
        assert top[:10].sum() > 0.15 * len(t)

    def test_stride_runs_produce_sequential_pairs(self):
        gen = SyntheticTraceGenerator(10000, seed=3)
        t = gen.generate("x", 2000, 1.0, 1.0)
        # Stride runs step through rank neighbours, which the block
        # permutation scatters; the stream must still be whole.
        assert len(t) == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(0)
        gen = SyntheticTraceGenerator(10)
        with pytest.raises(ValueError):
            gen.generate("x", 0, 1.0, 1.0)


class TestSpec:
    def test_table_iv_complete(self):
        """All 17 benchmarks of the paper's Table IV."""
        assert len(SPEC_CPU2017) == 17
        assert "mcf" in SPEC_CPU2017
        assert SPEC_CPU2017["mcf"] == (28.2, 0.2)
        assert SPEC_CPU2017["xz"][1] == 15.5

    def test_spec_trace_builds(self):
        t = spec_trace("gcc", n_oram_blocks=500, n_requests=100)
        assert t.suite == "SPEC CPU2017"
        assert t.read_mpki == 0.1
        assert len(t) == 100

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            spec_trace("nope", 100, 10)

    def test_benchmarks_listing(self):
        assert spec_benchmarks()[0] == "gcc"
        assert len(spec_benchmarks()) == 17

    def test_per_benchmark_seeds_differ(self):
        a = spec_trace("gcc", 500, 50, seed=0)
        b = spec_trace("mcf", 500, 50, seed=0)
        assert [r.block for r in a] != [r.block for r in b]

    def test_deterministic(self):
        a = spec_trace("gcc", 500, 50, seed=3)
        b = spec_trace("gcc", 500, 50, seed=3)
        assert [(r.block, r.write) for r in a] == [(r.block, r.write) for r in b]


class TestParsec:
    def test_suite_nonempty(self):
        assert len(PARSEC) >= 8
        assert "canneal" in PARSEC

    def test_parsec_trace_builds(self):
        t = parsec_trace("canneal", n_oram_blocks=500, n_requests=60)
        assert t.suite == "PARSEC"
        assert len(t) == 60

    def test_unknown(self):
        with pytest.raises(KeyError):
            parsec_trace("nope", 100, 10)

    def test_listing_matches_table(self):
        assert suite_benchmarks("parsec") == list(PARSEC)
