"""Fig. 2: dead blocks over time.

The paper tracks the total number of dead blocks as execution
progresses: the population rises quickly at first (readPaths kill L
slots each while early reshuffles are still rare) and then plateaus
once dead blocks spread across all paths. This benchmark replays that
experiment on the Baseline scheme for three benchmarks plus their
average, exactly as the paper's figure reports, and asserts the
rise-then-plateau shape.
"""

import numpy as np

from _common import bench_levels, bench_requests, emit, once
from repro.analysis.report import render_series
from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.traces.spec import spec_trace

# Dead-block steady state needs many reshuffle rounds over the
# leaves; a slightly smaller tree with proportionally more accesses
# reaches the paper's plateau in reasonable wall time.
def _levels():
    return max(8, bench_levels() - 4)

BENCHES = ["mcf", "lbm", "x264"]


def _run_one(cfg, bench, n_requests, interval):
    """(online access, dead blocks) at the start of every
    ``interval``-th access."""
    trace = spec_trace(bench, cfg.n_real_blocks, n_requests, seed=11)
    oram = build_oram(cfg, seed=11)
    oram.warm_fill()
    samples = []
    for req in trace:
        access_no = oram.online_accesses + 1
        if access_no % interval == 0:
            samples.append((access_no, oram.store.total_dead_slots()))
        oram.access(req.block, write=req.write)
    return samples


def test_fig02_dead_blocks_over_time(benchmark):
    cfg = schemes.baseline_cb(_levels())
    n = max(4 * cfg.n_leaves, bench_requests())
    interval = max(1, n // 20)

    def run():
        return {b: _run_one(cfg, b, n, interval) for b in BENCHES}

    samples = once(benchmark, run)

    series = {}
    for bench, pairs in samples.items():
        series[bench] = {x: d for x, d in pairs}
    xs = sorted(next(iter(series.values())).keys())
    series["average"] = {
        x: float(np.mean([series[b][x] for b in BENCHES])) for x in xs
    }
    emit(
        "fig02_dead_blocks_over_time",
        render_series(
            "online_accesses",
            series,
            title=(f"Fig 2: dead blocks over time (Baseline, L={cfg.levels}; "
                   "paper shape: fast rise, then plateau)"),
        ),
    )

    for bench, pairs in samples.items():
        pops = [d for _, d in pairs]
        early = np.mean(pops[: max(1, len(pops) // 5)])
        # The plateau: the mean of the last quarter of samples.
        late = float(np.mean(pops[-max(1, len(pops) // 4):]))
        assert late > early, f"{bench}: population did not grow"
        tail = pops[-5:]
        assert max(tail) - min(tail) < 0.5 * late + 50, (
            f"{bench}: population did not stabilize"
        )
