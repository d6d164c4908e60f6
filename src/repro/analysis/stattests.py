"""Statistical tests for protocol randomness claims.

Security arguments lean on distributional statements -- remaps are
uniform over leaves, attacker success is Bernoulli(1/L), slot choices
are unbiased. These helpers turn those statements into principled
pass/fail checks (used by the test suite and the security benchmarks)
instead of hand-tuned tolerances:

- :func:`chi_square_uniform` -- goodness-of-fit of observed counts
  against the uniform distribution;
- :func:`binomial_interval` -- a normal-approximation confidence
  interval for a success probability;
- :func:`proportion_gap_significant` -- two-sample z-test for the
  difference between two observed proportions.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def chi_square_uniform(counts: Sequence[int]) -> Tuple[float, float]:
    """Chi-square test of ``counts`` against uniformity.

    Returns ``(statistic, p_value)``; a small p-value rejects
    uniformity. Bins with tiny expectations make the test unreliable,
    so at least 5 expected observations per bin are required.

    Needs scipy (the ``dev`` extra) for the chi-square tail; it is
    imported here, not at module scope, so the package itself imports
    without it.
    """
    try:
        from scipy.stats import chi2
    except ImportError as exc:
        raise ImportError(
            "chi_square_uniform needs scipy for the chi-square tail "
            "probability; install it with `pip install scipy` "
            "(or `pip install -e .[dev]`)"
        ) from exc
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a 1-D array of >= 2 bins")
    if (arr < 0).any():
        raise ValueError("counts must be non-negative")
    total = arr.sum()
    expected = total / arr.size
    if expected < 5:
        raise ValueError(
            f"too few observations ({total}) for {arr.size} bins"
        )
    stat = float(((arr - expected) ** 2 / expected).sum())
    p = float(chi2.sf(stat, df=arr.size - 1))
    return stat, p


def binomial_interval(
    successes: int, trials: int, z: float = 3.0
) -> Tuple[float, float]:
    """Normal-approximation CI for a Bernoulli probability.

    ``z = 3`` gives ~99.7% coverage -- wide enough that a test
    asserting "1/L lies in the interval" practically never flakes
    while still catching real bias.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    half = z * math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return max(0.0, p - half), min(1.0, p + half)


def proportion_gap_significant(
    successes_a: int, trials_a: int,
    successes_b: int, trials_b: int,
    z: float = 3.0,
) -> bool:
    """True if two observed proportions differ significantly.

    Pooled two-sample z-test; used to ask "does AB's attacker success
    rate differ from the Baseline's?" (it must not).
    """
    if trials_a <= 0 or trials_b <= 0:
        raise ValueError("trials must be positive")
    pa = successes_a / trials_a
    pb = successes_b / trials_b
    pool = (successes_a + successes_b) / (trials_a + trials_b)
    se = math.sqrt(max(pool * (1 - pool), 1e-12)
                   * (1 / trials_a + 1 / trials_b))
    return abs(pa - pb) > z * se
