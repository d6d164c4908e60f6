"""Background claim (paper section III): Ring vs Path ORAM bandwidth.

Ring ORAM's raison d'etre is the online bandwidth reduction: a
readPath fetches one block per bucket instead of Path ORAM's Z per
bucket, so online traffic falls by ~Z while overall traffic stays in
the same ballpark (offline evictions dominate). This benchmark measures
both protocols side by side on the same workload and checks the
claimed ratios, anchoring the substrate this reproduction builds on.
"""

import pytest

from _common import bench_levels, bench_requests, emit, once
from repro.analysis.report import render_mapping_table
from repro.core import schemes
from repro.oram.path import PathOram, path_oram_config
from repro.oram.ring import RingOram
from repro.oram.stats import CountingSink, OpKind
from repro.traces.spec import spec_trace


def test_ring_vs_path_bandwidth(benchmark):
    lv = max(8, bench_levels() - 4)
    ring_cfg = schemes.classic_ring(lv)
    # Path ORAM with the classic Z=4, sized to the same block count so
    # the identical trace drives both.
    path_cfg = path_oram_config(lv, z=4, treetop_levels=ring_cfg.treetop_levels)
    n_blocks = min(ring_cfg.n_real_blocks, path_cfg.n_real_blocks)
    n = max(800, bench_requests())
    trace = spec_trace("mcf", n_blocks, n, seed=61)

    def run():
        ring_sink = CountingSink(lv)
        ring = RingOram(ring_cfg, sink=ring_sink, seed=61)
        ring.warm_fill()
        path_sink = CountingSink(lv)
        path = PathOram(path_cfg, sink=path_sink, seed=61)
        for req in trace:
            ring.access(req.block, write=req.write)
            path.access(req.block, write=req.write)
        # Both controllers must end the run in a sound state.
        ring.check_invariants()
        path.check_invariants()
        return ring_sink, path_sink

    ring_sink, path_sink = once(benchmark, run)

    def online_reads(sink):
        return sink.by_kind[OpKind.READ_PATH].data_reads

    def total_offchip(sink):
        return sink.total_offchip

    rows = [
        {
            "protocol": "Path ORAM (Z=4)",
            "online_blocks_per_access": online_reads(path_sink) / n,
            "total_accesses_per_access": total_offchip(path_sink) / n,
        },
        {
            "protocol": f"Ring ORAM (Z=12, Z'=5)",
            "online_blocks_per_access": online_reads(ring_sink) / n,
            "total_accesses_per_access": total_offchip(ring_sink) / n,
        },
    ]
    ratio = online_reads(path_sink) / online_reads(ring_sink)
    rows.append({
        "protocol": "Path/Ring online ratio",
        "online_blocks_per_access": ratio,
        "total_accesses_per_access": None,
    })
    emit(
        "ring_vs_path",
        render_mapping_table(
            rows,
            title=("Section III background: Ring ORAM's online-bandwidth "
                   "advantage over Path ORAM (paper: ~Z' lower per bucket, "
                   "i.e. 4x at Z=4 path buckets)"),
        ),
    )

    # Ring reads 1 block/bucket online; Path reads Z=4: ratio = Z.
    assert ratio == pytest.approx(4.0, rel=0.05)
    # Path ORAM pays its full cost online; Ring defers most of it to
    # offline evictions, keeping total traffic within ~2x of Path.
    path_total = total_offchip(path_sink) / n
    ring_total = total_offchip(ring_sink) / n
    assert ring_total < 2.2 * path_total
