"""Tests for the paper's scheme configurations (repro.core.schemes)."""

import pytest

from repro.core import schemes


class TestBaselineCb:
    def test_paper_shape(self):
        cfg = schemes.baseline_cb(24)
        g = cfg.geometry[0]
        assert (g.z_real, g.s_reserved, g.overlap) == (5, 3, 4)
        assert g.z_total == 8
        assert g.sustain == 7

    def test_uniform(self):
        cfg = schemes.baseline_cb(24)
        assert len(set(cfg.geometry)) == 1

    def test_8gb_tree(self):
        cfg = schemes.baseline_cb(24)
        assert cfg.tree_bytes == ((1 << 24) - 1) * 8 * 64

    def test_treetop_ten_levels(self):
        assert schemes.baseline_cb(24).treetop_levels == 10


class TestClassicRing:
    def test_paper_shape(self):
        cfg = schemes.classic_ring(24)
        g = cfg.geometry[0]
        assert (g.z_real, g.s_reserved, g.overlap) == (5, 7, 0)
        assert g.z_total == 12
        assert g.sustain == 7

    def test_21_percent_utilization(self):
        """(Z' x 50%) / Z = 2.5/12 ~ 21% (paper section III-B)."""
        cfg = schemes.classic_ring(24)
        assert cfg.space_utilization == pytest.approx(2.5 / 12, abs=0.002)


class TestIr:
    def test_middle_band_shrunk(self):
        cfg = schemes.ir_oram(24)
        assert cfg.geometry[10].z_real == 4
        assert cfg.geometry[18].z_real == 4
        assert cfg.geometry[9].z_real == 5
        assert cfg.geometry[19].z_real == 5

    def test_overlap_three_everywhere(self):
        cfg = schemes.ir_oram(24)
        assert all(g.overlap == 3 for g in cfg.geometry)

    def test_more_reshuffles_than_baseline(self):
        """Sustain 6 < 7: IR reshuffles more often."""
        ir = schemes.ir_oram(24)
        base = schemes.baseline_cb(24)
        assert ir.geometry[0].sustain < base.geometry[0].sustain

    def test_negligible_space_impact(self):
        ir = schemes.ir_oram(24)
        base = schemes.baseline_cb(24)
        assert 0.99 < ir.tree_bytes / base.tree_bytes <= 1.0

    def test_protects_same_data(self):
        assert (schemes.ir_oram(24).n_real_blocks
                == schemes.baseline_cb(24).n_real_blocks)


class TestDr:
    def test_bottom_six_levels_shrunk(self):
        cfg = schemes.dr_scheme(24)
        for lv in range(18, 24):
            g = cfg.geometry[lv]
            assert (g.z_real, g.s_reserved) == (5, 1)
            assert g.z_total == 6
            assert g.remote_extension == 2
        assert cfg.geometry[17].z_total == 8

    def test_extension_recovers_baseline_sustain(self):
        """S=1 + Y=4 + r=2 = 7, the baseline's sustain."""
        cfg = schemes.dr_scheme(24)
        assert cfg.geometry[23].sustain == 7
        assert cfg.geometry[23].sustain_unextended == 5

    def test_deadq_on_dr_levels(self):
        cfg = schemes.dr_scheme(24)
        assert cfg.deadq_levels == (18, 19, 20, 21, 22, 23)
        assert cfg.deadq_capacity == 1000

    def test_75_percent_space(self):
        """Paper: DR lowers space demand to 75% of Baseline."""
        ratio = schemes.dr_scheme(24).tree_bytes / schemes.baseline_cb(24).tree_bytes
        assert ratio == pytest.approx(0.754, abs=0.002)

    def test_sensitivity_variants(self):
        for bottom in range(1, 7):
            cfg = schemes.dr_scheme(24, bottom=bottom)
            shrunk = sum(1 for g in cfg.geometry if g.z_total == 6)
            assert shrunk == bottom


class TestNs:
    def test_bottom_two_levels(self):
        cfg = schemes.ns_scheme(24)
        assert cfg.geometry[22].z_total == 6
        assert cfg.geometry[23].z_total == 6
        assert cfg.geometry[21].z_total == 8

    def test_no_extension(self):
        cfg = schemes.ns_scheme(24)
        assert all(g.remote_extension == 0 for g in cfg.geometry)
        assert cfg.deadq_levels == ()

    def test_81_percent_space(self):
        """Paper: NS reduces space demand by 19%."""
        ratio = schemes.ns_scheme(24).tree_bytes / schemes.baseline_cb(24).tree_bytes
        assert ratio == pytest.approx(0.8125, abs=0.002)

    def test_ly_sx_variants(self):
        cfg = schemes.ns_scheme(24, bottom=3, reduce_by=3)
        assert cfg.geometry[23].s_reserved == 0
        assert cfg.name == "NS-L3-S3"


class TestAb:
    def test_split_band(self):
        cfg = schemes.ab_scheme(24)
        for lv in (18, 19, 20):
            assert cfg.geometry[lv].z_total == 6
            assert cfg.geometry[lv].remote_extension == 2
        for lv in (21, 22, 23):
            assert cfg.geometry[lv].z_total == 5
            assert cfg.geometry[lv].s_reserved == 0
            assert cfg.geometry[lv].remote_extension == 2

    def test_64_percent_space(self):
        """Paper: AB achieves ~36% space reduction."""
        ratio = schemes.ab_scheme(24).tree_bytes / schemes.baseline_cb(24).tree_bytes
        assert ratio == pytest.approx(0.645, abs=0.003)

    def test_utilization_near_50(self):
        """Paper: AB improves utilization from 31.2% to 48.5%."""
        assert schemes.ab_scheme(24).space_utilization == pytest.approx(
            0.485, abs=0.003
        )

    def test_deadq_covers_whole_band(self):
        assert schemes.ab_scheme(24).deadq_levels == tuple(range(18, 24))


class TestDrPerf:
    def test_same_space_as_baseline(self):
        assert (schemes.dr_perf_scheme(24).tree_bytes
                == schemes.baseline_cb(24).tree_bytes)

    def test_extends_beyond_baseline_sustain(self):
        cfg = schemes.dr_perf_scheme(24)
        assert cfg.geometry[23].sustain == 9
        assert cfg.geometry[23].sustain_unextended == 7

    def test_deadq_on_band(self):
        cfg = schemes.dr_perf_scheme(24)
        assert cfg.deadq_levels == (18, 19, 20, 21, 22, 23)

    def test_by_name(self):
        assert schemes.by_name("dr-perf", 10).name == "DR-perf"


class TestRingSReduced:
    def test_fig4_variant(self):
        cfg = schemes.ring_s_reduced(24, bottom=3, reduce_by=3)
        assert cfg.geometry[23].s_reserved == 4
        assert cfg.geometry[20].s_reserved == 7
        # Fig. 4 (top): S-3 on the last three levels keeps 78.1% of
        # classic Ring's space.
        ratio = cfg.tree_bytes / schemes.classic_ring(24).tree_bytes
        assert ratio == pytest.approx(0.781, abs=0.002)

    def test_space_monotone_in_bottom(self):
        sizes = [schemes.ring_s_reduced(24, bottom=x).tree_bytes
                 for x in range(1, 8)]
        assert sizes == sorted(sizes, reverse=True)


class TestLookupAndScaling:
    def test_by_name(self):
        for name in ("baseline", "ir", "dr", "ns", "ab", "ring", "cb"):
            cfg = schemes.by_name(name, 12)
            assert cfg.levels == 12

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            schemes.by_name("nope")

    def test_main_schemes_order(self):
        names = [c.name for c in schemes.main_schemes(24)]
        assert names == ["Baseline", "IR", "DR", "NS", "AB"]

    def test_scaled_trees_valid(self):
        """Every scheme builds at small and odd level counts."""
        for levels in (6, 9, 13, 16):
            for cfg in schemes.main_schemes(levels):
                assert cfg.levels == levels
                assert cfg.n_real_blocks > 0

    def test_space_ratios_stable_across_scales(self):
        """The bottom-level fractions keep ratios ~invariant to L."""
        for levels in (16, 20, 24):
            base = schemes.baseline_cb(levels).tree_bytes
            ab = schemes.ab_scheme(levels).tree_bytes
            assert ab / base == pytest.approx(0.645, abs=0.01)
