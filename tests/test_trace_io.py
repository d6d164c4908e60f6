"""Tests for USIMM-format trace I/O (repro.traces.io)."""

import pytest

from repro.traces.io import load_trace, save_trace
from repro.traces.spec import spec_trace
from repro.traces.trace import Trace, TraceRequest


class TestSave:
    def test_format(self, tmp_path):
        t = Trace("t", [TraceRequest(3, False), TraceRequest(7, True)],
                  read_mpki=1.0, write_mpki=1.0)
        path = tmp_path / "t.trc"
        n = save_trace(t, path)
        assert n == 2
        lines = path.read_text().splitlines()
        assert lines[0] == "500 R 0xc0"
        assert lines[1] == "500 W 0x1c0"

    def test_roundtrip_preserves_requests(self, tmp_path):
        t = spec_trace("mcf", 4096, 300, seed=1)
        path = tmp_path / "mcf.trc"
        save_trace(t, path)
        back = load_trace(path, "mcf", 4096)
        assert [(r.block, r.write) for r in back] == [
            (r.block, r.write) for r in t
        ]

    def test_roundtrip_recovers_mpki(self, tmp_path):
        t = spec_trace("x264", 4096, 400, seed=1)
        path = tmp_path / "x.trc"
        save_trace(t, path)
        back = load_trace(path, "x264", 4096)
        assert back.total_mpki == pytest.approx(t.total_mpki, rel=0.05)
        assert back.write_mpki / back.total_mpki == pytest.approx(
            t.write_mpki / t.total_mpki, abs=0.02)


class TestLoad:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.trc"
        path.write_text("# header\n\n100 R 0x40\n")
        t = load_trace(path, "c", 100)
        assert len(t) == 1
        assert t.requests[0].block == 1

    def test_addresses_folded_into_range(self, tmp_path):
        path = tmp_path / "f.trc"
        path.write_text("10 R 0xFFFFFFC0\n")
        t = load_trace(path, "f", n_oram_blocks=100)
        assert 0 <= t.requests[0].block < 100

    def test_all_read_trace_valid(self, tmp_path):
        path = tmp_path / "r.trc"
        path.write_text("10 R 0x0\n10 R 0x40\n")
        t = load_trace(path, "r", 100)
        assert t.write_mpki > 0  # epsilon keeps Trace invariants
        assert t.write_mpki / t.total_mpki < 1e-6

    def test_bad_op_rejected(self, tmp_path):
        path = tmp_path / "b.trc"
        path.write_text("10 X 0x0\n")
        with pytest.raises(ValueError, match="bad op"):
            load_trace(path, "b", 100)

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "s.trc"
        path.write_text("10 R\n")
        with pytest.raises(ValueError, match="expected"):
            load_trace(path, "s", 100)

    def test_negative_gap_rejected(self, tmp_path):
        path = tmp_path / "n.trc"
        path.write_text("-1 R 0x0\n")
        with pytest.raises(ValueError, match="negative"):
            load_trace(path, "n", 100)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.trc"
        path.write_text("abc R 0x0\n")
        with pytest.raises(ValueError):
            load_trace(path, "g", 100)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "e.trc"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no requests"):
            load_trace(path, "e", 100)

    def test_loaded_trace_drives_simulator(self, tmp_path):
        from repro.core import schemes
        from repro.sim import SimConfig, simulate
        cfg = schemes.ab_scheme(8)
        t = spec_trace("gcc", cfg.n_real_blocks, 150, seed=2)
        path = tmp_path / "gcc.trc"
        save_trace(t, path)
        back = load_trace(path, "gcc", cfg.n_real_blocks)
        result = simulate(cfg, back, SimConfig(seed=2))
        assert result.exec_ns > 0
        assert result.requests == 150
