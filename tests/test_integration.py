"""Cross-module integration tests: the paper's claims, in miniature.

Each test runs the full stack (traces -> schemes -> controller -> DRAM
model) at reduced scale and asserts the *shape* of the paper's results:
exact space ratios, bounded performance overhead, more reshuffles where
S shrinks, extension ratios ordering, and security preservation.
"""

import numpy as np
import pytest

from repro.analysis.space import normalized_space
from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.core.security import GuessingAttacker
from repro.sim import SimConfig, simulate
from repro.traces.spec import spec_trace

LEVELS = 12
N_REQUESTS = 900
WARMUP = 300


@pytest.fixture(scope="module")
def matrix():
    cfgs = schemes.main_schemes(LEVELS)
    trace = spec_trace("mcf", cfgs[0].n_real_blocks, N_REQUESTS, seed=3)
    sim = SimConfig(seed=3, warmup_requests=WARMUP)
    return {cfg.name: simulate(cfg, trace, sim) for cfg in cfgs}


class TestSpaceClaims:
    def test_space_ordering(self, matrix):
        """AB < DR < NS < IR <= Baseline (Fig. 8a)."""
        t = {k: v.tree_bytes for k, v in matrix.items()}
        assert t["AB"] < t["DR"] < t["NS"] < t["IR"] <= t["Baseline"]

    def test_space_reduction_magnitudes(self):
        norm = normalized_space(schemes.main_schemes(24))
        assert norm["AB"] == pytest.approx(0.645, abs=0.005)
        assert norm["DR"] == pytest.approx(0.754, abs=0.005)

    def test_utilization_ordering(self, matrix):
        u = {k: v.space_utilization for k, v in matrix.items()}
        assert u["AB"] > u["DR"] > u["NS"] > u["Baseline"]


class TestPerformanceClaims:
    def test_overheads_are_low(self, matrix):
        """The paper's headline: space savings at <= ~5% slowdown.

        Our memory model sits within ~10% of Baseline either way for
        every scheme (see EXPERIMENTS.md for the per-figure account).
        """
        base = matrix["Baseline"].exec_ns
        for name in ("DR", "NS", "AB"):
            ratio = matrix[name].exec_ns / base
            assert 0.85 < ratio < 1.15, f"{name} ratio {ratio}"

    def test_dr_pays_for_remote_accesses(self, matrix):
        """DR is the slowest of the AB family (remote row misses)."""
        assert matrix["DR"].exec_ns >= matrix["NS"].exec_ns * 0.97

    def test_bandwidth_overhead_small(self, matrix):
        """Fig. 9: AB's extra bandwidth demand ~1%."""
        base = matrix["Baseline"].bytes_transferred
        ab = matrix["AB"].bytes_transferred
        assert abs(ab / base - 1.0) < 0.15


class TestReshuffleClaims:
    def test_ns_reshuffles_more_at_bottom(self, matrix):
        """Fig. 10: NS's reduced-S levels reshuffle more."""
        base = np.array(matrix["Baseline"].reshuffles_by_level, dtype=float)
        ns = np.array(matrix["NS"].reshuffles_by_level, dtype=float)
        bottom = slice(LEVELS - 2, LEVELS)
        assert ns[bottom].sum() > base[bottom].sum()

    def test_dr_reshuffles_close_to_baseline(self, matrix):
        """Fig. 10: S-extension keeps DR's reshuffles near Baseline."""
        base = np.array(matrix["Baseline"].reshuffles_by_level, dtype=float)
        dr = np.array(matrix["DR"].reshuffles_by_level, dtype=float)
        bottom = slice(LEVELS - 6, LEVELS)
        assert dr[bottom].sum() < 1.6 * base[bottom].sum()


class TestExtensionClaims:
    def test_dr_extends_more_than_ab(self):
        """Fig. 14: DR ~100%, AB lower (fewer dead blocks available)."""
        cfgs = {c.name: c for c in schemes.main_schemes(LEVELS)}
        trace = spec_trace("mcf", cfgs["DR"].n_real_blocks, 1200, seed=5)
        dr = simulate(cfgs["DR"], trace, SimConfig(seed=5, warmup_requests=600))
        ab = simulate(cfgs["AB"], trace, SimConfig(seed=5, warmup_requests=600))
        assert dr.extension_ratio > 0.5
        assert dr.extension_ratio >= ab.extension_ratio - 0.05

    def test_dead_blocks_reduced_by_reclaim(self, matrix):
        """DR/AB hold fewer dead blocks than Baseline at any instant."""
        assert matrix["DR"].dead_blocks < matrix["Baseline"].dead_blocks
        assert matrix["AB"].dead_blocks < matrix["Baseline"].dead_blocks


class TestSecurityClaim:
    def test_attacker_blind_for_baseline_and_ab(self):
        """Fig. 7 in miniature: success ~ 1/L for both."""
        rates = {}
        for name in ("baseline", "ab"):
            cfg = schemes.by_name(name, 8)
            atk = GuessingAttacker(cfg.levels, seed=0)
            oram = build_oram(cfg, seed=0, observers=[atk])
            oram.warm_fill()
            rng = np.random.default_rng(2)
            for _ in range(2500):
                oram.access(int(rng.integers(cfg.n_real_blocks)))
            rates[name] = atk.success_rate
        assert rates["baseline"] == pytest.approx(1 / 8, abs=0.02)
        assert rates["ab"] == pytest.approx(rates["baseline"], abs=0.02)


class TestEndToEndData:
    def test_values_survive_across_all_schemes(self):
        for cfg in schemes.main_schemes(8):
            oram = build_oram(cfg, seed=1, store_data=True)
            oram.warm_fill()
            shadow = {}
            rng = np.random.default_rng(4)
            for i in range(250):
                blk = int(rng.integers(cfg.n_real_blocks))
                if rng.random() < 0.4:
                    shadow[blk] = (cfg.name, i)
                    oram.write(blk, (cfg.name, i))
                else:
                    assert oram.read(blk) == shadow.get(blk), cfg.name
            oram.check_invariants()
