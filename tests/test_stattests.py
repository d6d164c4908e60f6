"""Tests for the statistical helpers, plus the protocol randomness
checks they enable."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.analysis.stattests import (
    binomial_interval,
    chi_square_uniform,
    proportion_gap_significant,
)
from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.core.security import GuessingAttacker


class TestChiSquare:
    def test_uniform_counts_pass(self):
        rng = np.random.default_rng(0)
        counts = np.bincount(rng.integers(0, 16, 8000), minlength=16)
        _stat, p = chi_square_uniform(counts)
        assert p > 0.001

    def test_skewed_counts_fail(self):
        counts = [1000] + [10] * 15
        _stat, p = chi_square_uniform(counts)
        assert p < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_uniform([5])
        with pytest.raises(ValueError):
            chi_square_uniform([-1, 5])
        with pytest.raises(ValueError):
            chi_square_uniform([1, 1, 1])  # too few observations


class TestScipyIsOptional:
    """scipy is a dev extra: one helper needs it, the package does not."""

    def test_missing_scipy_is_a_clear_import_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        with pytest.raises(ImportError, match="needs scipy"):
            chi_square_uniform([50, 50])

    def test_package_import_does_not_load_scipy(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run(
            [sys.executable, "-c",
             "import repro.serve, repro.sim.engine, sys; "
             "assert 'scipy' not in sys.modules"],
            check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )


class TestBinomialInterval:
    def test_contains_true_p(self):
        rng = np.random.default_rng(1)
        trials = 5000
        hits = int(rng.binomial(trials, 0.125))
        lo, hi = binomial_interval(hits, trials)
        assert lo <= 0.125 <= hi

    def test_bounds_clamped(self):
        lo, hi = binomial_interval(0, 10)
        assert lo == 0.0
        lo, hi = binomial_interval(10, 10)
        assert hi == 1.0

    def test_narrows_with_trials(self):
        lo1, hi1 = binomial_interval(10, 100)
        lo2, hi2 = binomial_interval(1000, 10000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_interval(1, 0)
        with pytest.raises(ValueError):
            binomial_interval(11, 10)


class TestProportionGap:
    def test_identical_not_significant(self):
        assert not proportion_gap_significant(100, 1000, 105, 1000)

    def test_large_gap_significant(self):
        assert proportion_gap_significant(100, 1000, 300, 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_gap_significant(1, 0, 1, 10)


class TestProtocolRandomness:
    """The security-relevant distributions, tested properly."""

    def _run(self, scheme, accesses=3000, levels=8, seed=0):
        cfg = schemes.by_name(scheme, levels)
        attacker = GuessingAttacker(cfg.levels, seed=seed)
        oram = build_oram(cfg, seed=seed, observers=[attacker])
        oram.warm_fill()
        rng = np.random.default_rng(seed + 1)
        remap_targets = []
        for _ in range(accesses):
            blk = int(rng.integers(cfg.n_real_blocks))
            oram.access(blk)
            remap_targets.append(oram.posmap.peek(blk))
        return cfg, oram, attacker, remap_targets

    def test_remap_leaf_distribution_uniform(self):
        cfg, _oram, _atk, remaps = self._run("ab")
        counts = np.bincount(remaps, minlength=cfg.n_leaves)
        _stat, p = chi_square_uniform(counts)
        assert p > 1e-4

    def test_attacker_rate_within_binomial_ci(self):
        _cfg, _oram, attacker, _ = self._run("ab")
        lo, hi = binomial_interval(attacker.correct, attacker.guesses)
        assert lo <= attacker.expected_rate <= hi

    def test_ab_vs_baseline_rates_statistically_equal(self):
        _, _, base, _ = self._run("baseline", seed=3)
        _, _, ab, _ = self._run("ab", seed=3)
        assert not proportion_gap_significant(
            base.correct, base.guesses, ab.correct, ab.guesses
        )

    def test_eviction_leaf_coverage_uniform_by_construction(self):
        """One reverse-lex round hits every leaf exactly once."""
        from repro.oram.tree import reverse_lexicographic_leaf
        leaves = [reverse_lexicographic_leaf(g, 9) for g in range(1 << 8)]
        counts = np.bincount(leaves, minlength=1 << 8)
        assert (counts == 1).all()
