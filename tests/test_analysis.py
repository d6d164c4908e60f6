"""Tests for the analysis package (space math, dead-block observers,
reporting)."""

import numpy as np
import pytest

from conftest import tiny_ab_config, tiny_config

from repro.analysis.deadblocks import LifetimeTracker
from repro.analysis.report import (
    BAR_WIDTH,
    format_cell,
    render_bars,
    render_mapping_table,
    render_series,
    render_table,
)
from repro.analysis.space import (
    level_space_profile,
    normalized_space,
    overhead_report,
    space_table,
    utilization_table,
)
from repro.core import schemes
from repro.core.ab_oram import build_oram


class TestSpaceMath:
    def test_normalized_space_paper_values(self, paper_schemes):
        norm = normalized_space(paper_schemes)
        assert norm["Baseline"] == 1.0
        assert norm["DR"] == pytest.approx(0.754, abs=0.002)
        assert norm["NS"] == pytest.approx(0.8125, abs=0.002)
        assert norm["AB"] == pytest.approx(0.645, abs=0.003)

    def test_explicit_baseline(self, paper_schemes):
        # The first scheme is the baseline.
        ab = [cfg for cfg in paper_schemes if cfg.name == "AB"]
        norm = normalized_space(ab + paper_schemes)
        assert norm["AB"] == 1.0
        assert norm["Baseline"] > 1.0

    def test_empty(self):
        with pytest.raises(ValueError):
            normalized_space([])

    def test_space_table_savings(self, paper_schemes):
        rows = {r["scheme"]: r for r in space_table(paper_schemes)}
        assert rows["AB"]["saving"] == pytest.approx(0.355, abs=0.003)

    def test_utilization_table(self, paper_schemes):
        rows = {r["scheme"]: r for r in utilization_table(paper_schemes)}
        assert rows["Baseline"]["utilization"] == pytest.approx(0.3125, abs=0.001)
        assert rows["AB"]["utilization"] == pytest.approx(0.485, abs=0.003)

    def test_level_profile_sums_to_one(self):
        prof = level_space_profile(schemes.ab_scheme(10))
        assert sum(r["fraction"] for r in prof) == pytest.approx(1.0)

    def test_top_17_of_24_levels_under_one_percent(self):
        """Paper section VIII-C's justification for DR's level choice."""
        prof = level_space_profile(schemes.baseline_cb(24))
        top17 = sum(r["fraction"] for r in prof[:17])
        assert top17 < 0.01

    def test_overhead_report_paper_budget(self):
        rep = overhead_report(schemes.ab_scheme(24))
        assert 18 * 1024 <= rep["deadq_onchip_bytes"] <= 24 * 1024
        assert rep["ab_metadata_fits_block"]
        assert rep["ring_metadata_bytes"] < rep["ab_metadata_bytes"] <= 64


class TestDeadBlockCensus:
    """The bucket store's dead-slot counts, which Figs. 2 and 3 read."""

    def test_population_rises_then_plateaus(self):
        """Fig. 2's shape: early growth, then stabilization."""
        cfg = tiny_config(levels=7)
        oram = build_oram(cfg, seed=1)
        oram.warm_fill()
        rng = np.random.default_rng(0)
        pops = []
        for i in range(1, 801):
            if i % 25 == 0:
                pops.append(oram.store.total_dead_slots())
            oram.access(int(rng.integers(cfg.n_real_blocks)))
        early = np.mean(pops[:4])
        late = np.mean(pops[-8:])
        very_late = np.mean(pops[-4:])
        assert late > early  # rises
        assert abs(very_late - late) < 0.35 * late  # plateaus

    def test_per_level_snapshot_shape(self):
        cfg = tiny_config()
        oram = build_oram(cfg, seed=1)
        for i in range(30):
            oram.access(i % cfg.n_real_blocks)
        snap = oram.store.dead_slots_by_level()
        assert snap.shape == (cfg.levels,)
        assert snap.sum() == oram.store.total_dead_slots()


class TestLifetimeTracker:
    def test_lifetimes_recorded(self):
        cfg = tiny_config(levels=6)
        tracker = LifetimeTracker(cfg.levels)
        oram = build_oram(cfg, seed=2, observers=[tracker])
        oram.warm_fill()
        for i in range(300):
            oram.access(i % cfg.n_real_blocks)
        rows = tracker.rows()
        assert rows, "no lifetimes recorded"
        for row in rows:
            assert 0 <= row["min"] <= row["avg"] <= row["max"]

    def test_pending_dead_matches_unreclaimed(self):
        cfg = tiny_config(levels=6)
        tracker = LifetimeTracker(cfg.levels)
        oram = build_oram(cfg, seed=2, observers=[tracker])
        for i in range(100):
            oram.access(i % cfg.n_real_blocks)
        assert len(tracker._death_time) == oram.store.total_dead_slots()

    def test_remote_reclaims_counted(self):
        """Under AB, rentals close lifetimes (reason 'remote')."""
        cfg = tiny_ab_config(levels=6)
        tracker = LifetimeTracker(cfg.levels)
        oram = build_oram(cfg, seed=2, observers=[tracker])
        oram.warm_fill()
        for i in range(300):
            oram.access(i % cfg.n_real_blocks)
        assert tracker.count.sum() > 0

    def test_mean_nan_for_untouched_levels(self):
        tracker = LifetimeTracker(4)
        means = tracker.mean()
        assert np.isnan(means).all()


class TestReport:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(1.5) == "1.500"
        assert format_cell(123456.0) == "1.23e+05"
        assert format_cell(float("nan")) == "nan"
        assert format_cell("x") == "x"

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2], [33, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1

    def test_render_table_row_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_mapping_table(self):
        out = render_mapping_table([{"x": 1, "y": 2}], title="M")
        assert "x" in out and "1" in out

    def test_render_mapping_table_empty(self):
        assert render_mapping_table([], title="E") == "E"

    def test_render_series(self):
        out = render_series("L", {"a": {1: 10, 2: 20}, "b": {2: 5}})
        assert "L" in out
        assert "-" in out  # missing value placeholder


class TestRenderBars:
    def test_scales_to_max(self):
        out = render_bars({"a": 1.0, "b": 0.5}, None, None)
        lines = out.splitlines()
        assert lines[0].count("#") == BAR_WIDTH
        assert lines[1].count("#") == BAR_WIDTH // 2

    def test_reference_marker(self):
        out = render_bars({"a": 2.0, "b": 1.0}, None, reference=1.0)
        assert "|" in out

    def test_title_and_empty(self):
        assert render_bars({}, "T", None) == "T"
        assert "T" in render_bars({"a": 1.0}, "T", None)

    def test_zero_values(self):
        out = render_bars({"a": 0.0}, None, None)
        assert "#" not in out
