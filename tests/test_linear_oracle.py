"""Linear-scan ORAM tests + differential oracle checks against Ring.

The scan ORAM is simple enough to be obviously correct, which makes it
the perfect oracle: replay one random workload against the scan and
against Ring ORAM (with and without AB extensions, with and without the
encrypted store) and require identical read results everywhere.
"""

import numpy as np
import pytest

from conftest import LinearScanOram, tiny_ab_config

from repro.core.ab_oram import build_oram
from repro.oram.datastore import EncryptedTreeStore
from repro.oram.stats import CountingSink, OpKind


class TestLinearScan:
    def test_roundtrip(self):
        oram = LinearScanOram(16)
        oram.write(3, "v")
        assert oram.read(3) == "v"
        assert oram.read(4) is None

    def test_out_of_range(self):
        oram = LinearScanOram(4)
        with pytest.raises(ValueError):
            oram.access(4)
        with pytest.raises(ValueError):
            LinearScanOram(0)

    def test_touches_everything_every_time(self):
        sink = CountingSink(1)
        oram = LinearScanOram(16, sink=sink)
        oram.read(0)
        oram.write(5, 1)
        c = sink.by_kind[OpKind.READ_PATH]
        assert c.data_reads == 2 * 16
        assert c.data_writes == 2 * 16
        assert oram.accesses_per_request == 32

    def test_trace_is_access_independent(self):
        """The defining property: identical traffic for any request."""
        a, b = CountingSink(1), CountingSink(1)
        o1 = LinearScanOram(16, sink=a)
        o2 = LinearScanOram(16, sink=b)
        o1.read(0)
        o2.write(15, "x")
        assert a.summary() == b.summary()


def workload(n_blocks, n_ops, seed):
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        blk = int(rng.integers(n_blocks))
        if rng.random() < 0.5:
            ops.append(("w", blk, f"v{i}"))
        else:
            ops.append(("r", blk, None))
    return ops


class TestDifferentialOracle:
    def _check_against_scan(self, ring, n_blocks, to_ring_value,
                            from_ring_value, seed):
        scan = LinearScanOram(n_blocks)
        for op, blk, val in workload(n_blocks, 300, seed):
            if op == "w":
                scan.write(blk, val)
                ring.access(blk, write=True, value=to_ring_value(val))
            else:
                expect = scan.read(blk)
                got = from_ring_value(ring.access(blk))
                assert got == expect, (blk, got, expect)
        ring.check_invariants()

    def test_plain_ring_matches_scan(self, cfg_small):
        ring = build_oram(cfg_small, seed=1, store_data=True)
        ring.warm_fill()
        self._check_against_scan(
            ring, cfg_small.n_real_blocks,
            to_ring_value=lambda v: v,
            from_ring_value=lambda v: v,
            seed=11,
        )

    def test_ab_ring_matches_scan(self, cfg_ab_small):
        ring = build_oram(cfg_ab_small, seed=1, store_data=True)
        ring.warm_fill()
        self._check_against_scan(
            ring, cfg_ab_small.n_real_blocks,
            to_ring_value=lambda v: v,
            from_ring_value=lambda v: v,
            seed=12,
        )

    def test_encrypted_ab_ring_matches_scan(self):
        cfg = tiny_ab_config(levels=5)
        ds = EncryptedTreeStore(cfg, b"oracle test key!", seed=2)
        ring = build_oram(cfg, seed=2, datastore=ds)
        ring.warm_fill()

        def to_ring(v):
            return v.encode()

        def from_ring(raw):
            if raw is None:
                return None
            stripped = bytes(raw).rstrip(b"\x00")
            # A never-written block decrypts to all-zero padding.
            return stripped.decode() if stripped else None

        self._check_against_scan(
            ring, cfg.n_real_blocks,
            to_ring_value=to_ring,
            from_ring_value=from_ring,
            seed=13,
        )


class TestLatencyPercentiles:
    def test_percentiles_populated_and_ordered(self):
        from repro.core import schemes
        from repro.sim import SimConfig, simulate
        from repro.traces.spec import spec_trace
        cfg = schemes.ab_scheme(8)
        trace = spec_trace("mcf", cfg.n_real_blocks, 200, seed=3)
        r = simulate(cfg, trace, SimConfig(seed=3))
        assert 0 < r.readpath_p50_ns <= r.readpath_p99_ns
        assert r.readpath_p99_ns < r.exec_ns
