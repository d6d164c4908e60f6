"""Fig. 3: dead blocks across the levels.

After a long run, the paper reports the per-level dead-block census
next to the per-level bucket count: the leaf level dominates in
absolute terms (~2.1 dead blocks per bucket there), and per-bucket
density grows toward the leaves -- the observation motivating remote
allocation at the bottom levels.
"""

from _common import bench_levels, bench_requests, emit, once
from repro.analysis.report import render_mapping_table
from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.traces.spec import spec_trace

# Dead-block steady state needs many reshuffle rounds over the
# leaves; a slightly smaller tree with proportionally more accesses
# reaches the paper's plateau in reasonable wall time.
def _levels():
    return max(8, bench_levels() - 4)


def test_fig03_dead_blocks_per_level(benchmark):
    cfg = schemes.baseline_cb(_levels())
    n = max(8 * cfg.n_leaves, 2 * bench_requests())

    def run():
        trace = spec_trace("mcf", cfg.n_real_blocks, n, seed=7)
        oram = build_oram(cfg, seed=7)
        oram.warm_fill()
        for req in trace:
            oram.access(req.block, write=req.write)
        return oram.store.dead_slots_by_level()

    snapshot = once(benchmark, run)

    rows = []
    for lv in range(cfg.levels):
        buckets = cfg.buckets_at(lv)
        rows.append({
            "level": lv,
            "dead_blocks": int(snapshot[lv]),
            "buckets": buckets,
            "dead_per_bucket": snapshot[lv] / buckets,
        })
    emit(
        "fig03_dead_blocks_per_level",
        render_mapping_table(
            rows,
            title=(f"Fig 3: dead blocks across levels (Baseline, L={cfg.levels}, "
                   f"{n} online accesses; paper: leaf level dominates, "
                   "~2.1 dead/bucket at leaves)"),
        ),
    )

    # Leaf level holds the most dead blocks in absolute terms.
    assert snapshot[-1] == snapshot.max()
    # Dead blocks exist across the bottom half of the tree.
    assert (snapshot[cfg.levels // 2:] > 0).all()
    # Per-bucket density at the leaves is O(1) (paper: ~2.1 of S=3+Y).
    leaf_density = snapshot[-1] / cfg.buckets_at(cfg.levels - 1)
    assert 0.3 < leaf_density < cfg.geometry[-1].z_total
