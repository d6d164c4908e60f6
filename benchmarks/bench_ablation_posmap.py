"""Ablation: does position-map realism change the AB-ORAM story?

The paper (like its baselines) charges no memory traffic for position
map lookups -- Table III provisions an on-chip PosMap + PLB and leaves
the recursion implicit. This ablation turns the Freecursive-style
recursion model on (every PLB miss costs one extra full ORAM access)
and re-measures Baseline vs AB: the posMap traffic inflates *both*
schemes' absolute time, and the AB/Baseline ratio must stay put --
i.e. the paper's conclusion is robust to this modeling choice.
"""

import pytest

from _common import bench_levels, bench_requests, bench_warmup, emit, once
from repro.analysis.report import render_mapping_table
from repro.core import schemes
from repro.core.ab_oram import needs_extensions
from repro.core.remote import RemoteAllocator
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.oram import metadata as md
from repro.oram.ring import RingOram
from repro.oram.stats import CountingSink, OpKind, TeeSink
from repro.sim.engine import DramSink
from repro.traces.spec import spec_trace


def _simulate(cfg, trace, posmap_mode, warmup):
    layout = TreeLayout(cfg, metadata_blocks=md.record_blocks(cfg))
    counting = CountingSink(cfg.levels)
    dram_sink = DramSink(layout, DramModel())
    ext = RemoteAllocator(cfg) if needs_extensions(cfg) else None
    oram = RingOram(cfg, sink=TeeSink(counting, dram_sink), seed=5,
                    extensions=ext, posmap_mode=posmap_mode,
                    plb_entries=512)
    if oram.posmap_model is not None:
        # Scale the on-chip share down with the tree so recursion
        # actually occurs at bench size.
        oram.posmap_model.__init__(cfg.n_real_blocks, plb_entries=512,
                                   onchip_entries=max(64, cfg.n_leaves // 4))
    oram.warm_fill()
    start = 0.0
    for i, req in enumerate(trace):
        if i == warmup:
            start = dram_sink.reset_measurement()
            counting.reset()
        dram_sink.advance(trace.cpu_gap_ns)
        oram.access(req.block, write=req.write)
    return {
        "exec_ns": dram_sink.now - start,
        "posmap_ops": counting.by_kind[OpKind.POSMAP].ops,
        "plb_hit_rate": (oram.posmap_model.hit_rate
                         if oram.posmap_model else None),
    }


def test_ablation_posmap_recursion(benchmark):
    lv = bench_levels()
    base_cfg = schemes.baseline_cb(lv)
    ab_cfg = schemes.ab_scheme(lv)
    trace = spec_trace("mcf", base_cfg.n_real_blocks, bench_requests(),
                       seed=5)
    warmup = bench_warmup()

    def run():
        out = {}
        for mode in ("onchip", "recursive"):
            out[mode] = {
                "Baseline": _simulate(base_cfg, trace, mode, warmup),
                "AB": _simulate(ab_cfg, trace, mode, warmup),
            }
        return out

    results = once(benchmark, run)

    rows = []
    for mode, pair in results.items():
        rows.append({
            "posmap": mode,
            "ab_vs_baseline": pair["AB"]["exec_ns"] / pair["Baseline"]["exec_ns"],
            "posmap_ops_base": pair["Baseline"]["posmap_ops"],
            "posmap_ops_ab": pair["AB"]["posmap_ops"],
            "plb_hit_rate": pair["AB"]["plb_hit_rate"],
        })
    emit(
        "ablation_posmap",
        render_mapping_table(
            rows,
            title=("Ablation: on-chip vs recursive position map "
                   "(AB/Baseline exec ratio must be stable)"),
        ),
    )

    by = {r["posmap"]: r for r in rows}
    # Recursion really happened and really cost something.
    assert by["recursive"]["posmap_ops_ab"] > 0
    assert by["onchip"]["posmap_ops_ab"] == 0
    rec = results["recursive"]
    on = results["onchip"]
    assert rec["Baseline"]["exec_ns"] > on["Baseline"]["exec_ns"]
    # The AB conclusion is robust: ratio moves by < 6 points.
    assert by["recursive"]["ab_vs_baseline"] == pytest.approx(
        by["onchip"]["ab_vs_baseline"], abs=0.06
    )
