"""Fig. 10: number of reshuffles across the levels.

The paper compares per-level reshuffle counts (evictPath +
earlyReshuffle bucket rewrites): DR tracks Baseline closely thanks to
the S extension; NS reshuffles markedly more at its two reduced-S
levels; AB (which uses an L3-S1-style shape on top of DR) sits between
them at the bottom levels.
"""

import numpy as np

from _common import (
    bench_levels,
    bench_requests,
    emit,
    once,
    sim_config,
)
from repro.analysis.report import render_series
from repro.core import schemes
from repro.sim import simulate
from repro.traces.spec import spec_trace


def _levels():
    # Early reshuffles at the leaves need several complete evictPath
    # rounds (leaves x A accesses each); a smaller tree reaches that
    # regime within the bench budget.
    return max(8, bench_levels() - 4)


def test_fig10_reshuffles_per_level(benchmark):
    lv = _levels()
    cfgs = {c.name: c for c in schemes.main_schemes(lv)}
    n = max(4 * cfgs["Baseline"].n_leaves * cfgs["Baseline"].evict_rate,
            2 * bench_requests())
    trace = spec_trace("mcf", cfgs["Baseline"].n_real_blocks, n, seed=10)

    def run():
        return {
            name: simulate(cfg, trace, sim_config(10))
            for name, cfg in cfgs.items()
            if name != "IR"
        }

    results = once(benchmark, run)

    series = {
        name: {i: r.reshuffles_by_level[i] for i in range(lv)}
        for name, r in results.items()
    }
    emit(
        "fig10_reshuffles_per_level",
        render_series(
            "level",
            series,
            title=(f"Fig 10: reshuffles per level (L={lv}, {n} accesses; "
                   "paper: DR ~ Baseline, NS spikes at its bottom 2 levels)"),
        ),
    )

    base = np.array(results["Baseline"].reshuffles_by_level, dtype=float)
    dr = np.array(results["DR"].reshuffles_by_level, dtype=float)
    ns = np.array(results["NS"].reshuffles_by_level, dtype=float)
    ab = np.array(results["AB"].reshuffles_by_level, dtype=float)

    # NS reshuffles more than Baseline at its two reduced levels.
    assert ns[-2:].sum() > 1.1 * base[-2:].sum()
    # Above the NS band, NS matches Baseline closely.
    assert ns[: lv - 2].sum() <= 1.1 * base[: lv - 2].sum()
    # DR's extension keeps it near Baseline across the DR band.
    band = slice(lv - 6, lv)
    assert dr[band].sum() < 1.5 * base[band].sum()
    # AB reshuffles at least as much as DR at the S=0 levels.
    assert ab[-3:].sum() >= dr[-3:].sum() * 0.9
