"""Ablation: the background-eviction threshold (CB's safety knob).

Bucket Compaction prevents stash overflow by issuing dummy accesses
whenever occupancy exceeds a threshold. The threshold trades dummy
traffic against stash headroom: too low and the ORAM burns accesses on
dummies, too high and the tail occupancy approaches the capacity the
hardware must provision. This ablation sweeps the threshold on the CB
baseline and reports dummy-access counts, execution time, and the
occupancy tail -- the trade the CB paper (and the IR comparison in our
EXPERIMENTS.md) revolves around.
"""

import dataclasses

import numpy as np

from _common import bench_levels, bench_requests, emit, once, sim_config
from repro.analysis.report import render_mapping_table
from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.sim import simulate
from repro.traces.spec import spec_trace

THRESHOLDS = [15, 30, 60, 120, 200]


def _levels():
    return max(8, bench_levels() - 4)


def test_ablation_background_threshold(benchmark):
    lv = _levels()
    base = schemes.baseline_cb(lv)
    n = max(4 * base.n_leaves * base.evict_rate, 2 * bench_requests())
    trace = spec_trace("mcf", base.n_real_blocks, n, seed=51)

    def run():
        out = {}
        for th in THRESHOLDS:
            cfg = dataclasses.replace(base, background_evict_threshold=th,
                                      geometry=base.geometry)
            oram = build_oram(cfg, seed=51)
            oram.warm_fill()
            # Stash occupancy at the start of every online access.
            occupancy = []
            for req in trace:
                occupancy.append(oram.stash.occupancy)
                oram.access(req.block, write=req.write)
            result = simulate(cfg, trace.truncated(max(600, n // 4)),
                              sim_config(51))
            out[th] = {
                "stash_p99": float(np.percentile(occupancy, 99)),
                "stash_max": float(max(occupancy)),
                "bg_accesses": oram.background_accesses,
                "exec_ns": result.exec_ns,
            }
        return out

    results = once(benchmark, run)

    base_exec = results[THRESHOLDS[-1]]["exec_ns"]
    rows = []
    for th in THRESHOLDS:
        r = results[th]
        rows.append({
            "threshold": th,
            "bg_dummy_accesses": r["bg_accesses"],
            "stash_p99": r["stash_p99"],
            "stash_max": r["stash_max"],
            "exec_norm": r["exec_ns"] / base_exec,
        })
    emit(
        "ablation_bg_threshold",
        render_mapping_table(
            rows,
            title=("Background-eviction threshold sweep on the CB baseline "
                   "(low threshold -> dummy traffic; high -> stash tail)"),
        ),
    )

    by = {r["threshold"]: r for r in rows}
    # A tight threshold forces background eviction...
    assert by[15]["bg_dummy_accesses"] > 0
    # ...a loose one avoids it entirely at this scale.
    assert by[200]["bg_dummy_accesses"] == 0
    # Dummy traffic decreases monotonically with the threshold.
    counts = [by[t]["bg_dummy_accesses"] for t in THRESHOLDS]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    # The occupancy tail is capped by the threshold (plus transient).
    for th in THRESHOLDS:
        assert by[th]["stash_p99"] <= th + base.stash_capacity * 0.2
