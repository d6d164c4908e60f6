"""Empirical security analysis (paper section VI-C).

The attacker observes every readPath: the L (bucket, slot) pairs it
touches, including any remote redirections (those are cleartext). It
then guesses which one of the L reads returned the real block. If Ring
ORAM's indistinguishability holds -- and AB-ORAM preserves it -- the
success rate converges to exactly 1/L regardless of the application
(the paper measures 0.041666 = 1/24 for both Baseline and AB).

:class:`GuessingAttacker` implements exactly that experiment as a
controller observer; it also keeps per-level guess histograms so tests
can verify that no tree level leaks a bias.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.oram.observer import BaseObserver


class GuessingAttacker(BaseObserver):
    """Observer that guesses the real block of every readPath."""

    def __init__(self, levels: int, seed: int = 0) -> None:
        self.levels = levels
        self.rng = np.random.default_rng(seed)
        self.guesses = 0
        self.correct = 0
        self.guess_histogram = np.zeros(levels, dtype=np.int64)
        self.real_histogram = np.zeros(levels, dtype=np.int64)

    # ------------------------------------------------------ observer hooks

    def on_read_path(
        self,
        leaf: int,
        reads: List[Tuple[int, int, int, bool]],
        target_bucket: int,
    ) -> None:
        """Guess one of the path's reads uniformly at random.

        ``reads`` holds (bucket, slot, level, remote) for each of the L
        reads in path order; ``target_bucket`` is the bucket that
        actually returned the real block (-1 for a fully-dummy path,
        e.g. a stash hit or background access -- the attacker cannot
        tell and still guesses; those guesses are necessarily wrong,
        exactly as they would be against the baseline).
        """
        if not reads:
            return
        self.guesses += 1
        pick = int(self.rng.integers(len(reads)))
        self.guess_histogram[reads[pick][2]] += 1
        if target_bucket >= 0:
            # Level of the real read, for bias analysis.
            for b, _slot, lv, _remote in reads:
                if b == target_bucket:
                    self.real_histogram[lv] += 1
                    break
        if target_bucket >= 0 and reads[pick][0] == target_bucket:
            self.correct += 1

    # ------------------------------------------------------------- metrics

    @property
    def success_rate(self) -> float:
        if self.guesses == 0:
            return 0.0
        return self.correct / self.guesses

    @property
    def expected_rate(self) -> float:
        """1/L: the rate an indistinguishable protocol admits."""
        return 1.0 / self.levels

    def advantage(self) -> float:
        """Attacker advantage over blind guessing (should be ~0)."""
        return self.success_rate - self.expected_rate

    def summary(self) -> Dict[str, float]:
        """The report's ``security`` block."""
        return {
            "guesses": int(self.guesses),
            "success_rate": self.success_rate,
            "expected_rate": self.expected_rate,
            "advantage": self.advantage(),
        }


class RemoteMappingCollector(BaseObserver):
    """Observer building the attacker's dictionary of remote mappings.

    Section VI-A argues that collecting every remote (host bucket, host
    slot) pair reveals nothing about real vs. dummy blocks. This
    collector gathers that exact dictionary so tests can check the
    claim empirically.

    The meaningful comparison is *conditioned on the tree level*: a
    read's level is public in every tree ORAM (path positions are
    observable), real blocks concentrate near the leaves, and the
    fraction of remote reads varies by level (truncated reshuffle
    rounds over-sample dummy reads at upper band levels). Those two
    priors combine into a harmless Simpson's-paradox gap in aggregate
    statistics. The genuine leak test is therefore per level: within
    one level, P(remote | real read) must match P(remote | dummy
    read); :meth:`level_bias` reports that gap per level and
    :meth:`weighted_bias` combines them weighted by real-read counts.
    """

    def __init__(self, band_levels: Optional[Tuple[int, ...]] = None) -> None:
        self.remote_reads = 0
        self.total_reads = 0
        self.remote_real_hits = 0
        self.real_hits = 0
        self.mappings: List[Tuple[int, int]] = []
        # level -> [real, real_remote, dummy, dummy_remote]
        self.per_level: Dict[int, List[int]] = {}
        self._band = set(band_levels) if band_levels is not None else None

    def on_read_path(self, leaf, reads, target_bucket) -> None:
        for b, s, lv, remote in reads:
            self.total_reads += 1
            is_real = target_bucket >= 0 and b == target_bucket
            if remote:
                self.remote_reads += 1
                if len(self.mappings) < 100000:
                    self.mappings.append((b, s))
            if is_real:
                self.real_hits += 1
                if remote:
                    self.remote_real_hits += 1
            if self._band is None or lv in self._band:
                st = self.per_level.setdefault(lv, [0, 0, 0, 0])
                if is_real:
                    st[0] += 1
                    st[1] += int(remote)
                else:
                    st[2] += 1
                    st[3] += int(remote)

    def level_bias(self, level: int) -> Optional[float]:
        """P(remote|real) - P(remote|dummy) at one level (None if unseen)."""
        st = self.per_level.get(level)
        if not st or st[0] == 0 or st[2] == 0:
            return None
        return st[1] / st[0] - st[3] / st[2]

    def weighted_bias(self) -> float:
        """Per-level biases combined, weighted by real-read counts.

        This is the attacker's usable signal: ~0 means that even
        knowing the full remote-mapping dictionary and the (public)
        level of each read, remote reads are no more likely to be real
        than local ones.
        """
        total_real = 0
        acc = 0.0
        for lv in self.per_level:
            bias = self.level_bias(lv)
            if bias is None:
                continue
            weight = self.per_level[lv][0]
            acc += bias * weight
            total_real += weight
        return acc / total_real if total_real else 0.0

    def level_rows(self) -> List[Dict[str, float]]:
        """Per-level remote-rate table for reporting."""
        rows = []
        for lv in sorted(self.per_level):
            real, real_rem, dummy, dummy_rem = self.per_level[lv]
            rows.append({
                "level": lv,
                "real_reads": real,
                "P(remote|real)": real_rem / real if real else float("nan"),
                "dummy_reads": dummy,
                "P(remote|dummy)": dummy_rem / dummy if dummy else float("nan"),
            })
        return rows
