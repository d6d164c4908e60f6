"""Tests for the empirical security analysis (repro.core.security).

The load-bearing test reproduces the paper's Fig. 7 in miniature: an
attacker guessing the real block of every readPath succeeds at ~1/L for
both the Baseline and AB-ORAM, and AB's remote redirections leak no
usable bias.
"""

import numpy as np
import pytest

from conftest import tiny_ab_config, tiny_config

from repro.core.ab_oram import build_oram
from repro.core.security import GuessingAttacker, RemoteMappingCollector


def drive(cfg, n_accesses, seed=0):
    attacker = GuessingAttacker(cfg.levels, seed=seed)
    collector = RemoteMappingCollector()
    oram = build_oram(cfg, seed=seed, observers=[attacker, collector])
    oram.warm_fill()
    rng = np.random.default_rng(seed + 1)
    for _ in range(n_accesses):
        oram.access(int(rng.integers(cfg.n_real_blocks)))
    return oram, attacker, collector


class TestGuessingAttacker:
    def test_baseline_rate_close_to_1_over_l(self):
        cfg = tiny_config(levels=8)
        _, attacker, _ = drive(cfg, 3000)
        assert attacker.success_rate == pytest.approx(1 / 8, abs=0.02)

    def test_ab_rate_matches_baseline(self):
        """Fig. 7: AB-ORAM preserves readPath indistinguishability."""
        base_cfg = tiny_config(levels=8)
        ab_cfg = tiny_ab_config(levels=8)
        _, base_atk, _ = drive(base_cfg, 3000)
        _, ab_atk, _ = drive(ab_cfg, 3000)
        assert ab_atk.success_rate == pytest.approx(base_atk.success_rate,
                                                    abs=0.02)
        assert abs(ab_atk.advantage()) < 0.02

    def test_guesses_count_background_paths_too(self):
        cfg = tiny_config(levels=6, background_evict_threshold=6,
                          evict_rate=10)
        oram, attacker, _ = (None, None, None)
        attacker = GuessingAttacker(cfg.levels, seed=0)
        oram = build_oram(cfg, seed=0, observers=[attacker])
        oram.warm_fill()
        for i in range(150):
            oram.access(i % cfg.n_real_blocks)
        assert attacker.guesses >= 150

    def test_expected_rate(self):
        assert GuessingAttacker(24).expected_rate == pytest.approx(1 / 24)

    def test_empty_reads_ignored(self):
        atk = GuessingAttacker(4)
        atk.on_read_path(0, [], -1)
        assert atk.guesses == 0

    def test_summary_keys(self):
        atk = GuessingAttacker(4)
        assert set(atk.summary()) == {"guesses", "success_rate",
                                      "expected_rate", "advantage"}


class TestRemoteIndistinguishability:
    def test_remote_reads_occur_under_ab(self):
        cfg = tiny_ab_config(levels=8)
        _, _, collector = drive(cfg, 2500)
        assert collector.remote_reads > 0
        assert 0 < collector.remote_reads / collector.total_reads < 0.5

    def test_real_blocks_do_appear_remotely(self):
        """If remote slots only held dummies, an attacker could exclude
        them from guessing; real reads must land on remote slots at a
        non-trivial rate."""
        cfg = tiny_ab_config(levels=8)
        _, _, collector = drive(cfg, 4000)
        assert collector.remote_real_hits > 0

    def test_no_remote_reads_under_baseline(self):
        cfg = tiny_config(levels=8)
        _, _, collector = drive(cfg, 500)
        assert collector.remote_reads == 0

    def test_mapping_dictionary_bounded(self):
        collector = RemoteMappingCollector()
        for i in range(5):
            collector.on_read_path(0, [(1, 0, 1, True)], -1)
        assert len(collector.mappings) == 5

    def test_level_conditioned_bias_is_negligible(self):
        """Within one level, remote reads are no likelier to be real
        than local reads (the genuine leak test; aggregate fractions
        only show the public level prior)."""
        cfg = tiny_ab_config(levels=8)
        _, _, collector = drive(cfg, 5000)
        assert abs(collector.weighted_bias()) < 0.06

    def test_level_rows_shape(self):
        cfg = tiny_ab_config(levels=8)
        _, _, collector = drive(cfg, 800)
        rows = collector.level_rows()
        assert rows
        for row in rows:
            assert set(row) == {"level", "real_reads", "P(remote|real)",
                                "dummy_reads", "P(remote|dummy)"}

    def test_level_bias_none_when_unseen(self):
        collector = RemoteMappingCollector()
        assert collector.level_bias(3) is None
        assert collector.weighted_bias() == 0.0


class TestGuessHistograms:
    def test_guess_histogram_spreads_over_levels(self):
        cfg = tiny_config(levels=8)
        _, attacker, _ = drive(cfg, 1500)
        assert (attacker.guess_histogram > 0).all()

    def test_real_histogram_total_matches_found_targets(self):
        cfg = tiny_config(levels=8)
        _, attacker, _ = drive(cfg, 1000)
        assert attacker.real_histogram.sum() <= attacker.guesses
        assert attacker.real_histogram.sum() > 0
