"""The ``BENCH_perf.json`` report format.

The report must stay machine-checkable without third-party schema
libraries (CI and the test suite validate it with the stock
interpreter), so the schema is a :class:`repro.report.ReportSpec`: the
tables below, run by the shared report kernel.

Top-level document::

    {
      "kind": "repro-perf-report",
      "schema_version": 1,
      "config":      { matrix definition, seeds, sizes, "smoke": bool },
      "environment": { "python": ..., "numpy": ..., "platform": ... },
      "cells":       [ { cell }, ... ]
    }

One cell per (scheme, trace) pair::

    {
      "scheme": "ring", "trace": "mcf",
      "sim": {                   # bit-deterministic for a code version
        "exec_ns": ..., "ns_per_access": ..., "stash_peak": ...,
        "reshuffles_total": ..., "reshuffles_by_level": [...],
        "dram_reads": ..., "dram_writes": ..., "row_hit_rate": ...,
        "online_accesses": ..., "background_accesses": ...,
        "evictions": ..., "dead_blocks": ..., "remote_accesses": ...
      }
    }

``sim.ns_per_access`` is what the compare gate checks (exit 1 when a
cell's simulated DRAM time per access rises more than
``DEFAULT_THRESHOLD_PCT``, 10 percent). Every field is a pure function
of the code and the config, so a failed compare is a change of
behaviour, never host noise; the rest of ``sim`` is diffed for the
summary text but never gates.

A cell whose worker failed (crashed process, raised exception) is
recorded as an *error cell* instead of silently shrinking the matrix::

    { "scheme": "ring", "trace": "mcf", "error": "<traceback or note>" }

Error cells validate against that three-field shape only; the compare
gate treats a baseline cell that errored in the new report as an ERROR
(exit 2), never as a pass.
"""

from __future__ import annotations

from repro.report import AT_LEAST_ONE, NUM, Gate, ReportSpec

PERF = ReportSpec(
    kind="repro-perf-report",
    config={
        "schemes": list,
        "benchmarks": list,
        "suite": str,
        "levels": int,
        "n_requests": int,
        "warmup_requests": int,
        "seed": int,
        "smoke": bool,
        # Optional (reports written before they existed stay valid):
        # extra pipelined cells as [scheme, trace, depth] triples and
        # extra sharded cells as [scheme, trace, shards] triples.
        "pipeline_cells?": list,
        "shard_cells?": list,
    },
    cell={
        "scheme": str,
        "trace": str,
        # A pipelined cell carries the depth it ran at and a sharded
        # cell the fleet width (serial cells omit both, keeping
        # historical reports byte-identical).
        "pipeline_depth?": AT_LEAST_ONE,
        "shards?": AT_LEAST_ONE,
        "sim": {
            "exec_ns": NUM,
            "ns_per_access": NUM,
            "stash_peak": int,
            "reshuffles_total": int,
            "reshuffles_by_level": list,
            "dram_reads": int,
            "dram_writes": int,
            "row_hit_rate": NUM,
            "online_accesses": int,
            "background_accesses": int,
            "evictions": int,
            "dead_blocks": int,
            "remote_accesses": int,
        },
    },
    # Pipelined and sharded cells are distinct from their serial twin:
    # ``scheme/trace@p<depth>@s<shards>`` (depth/width 1 or absent
    # keeps the historical two-part key).
    key="{scheme}/{trace}",
    key_suffixes=(("pipeline_depth", "@p{}"), ("shards", "@s{}")),
    gates=(
        Gate("sim.ns_per_access", "lower", "pct",
             show="{old:.1f} -> {new:.1f} ns/access ({delta:+.1f}%)",
             fail=" exceeds +{limit:g}% threshold", positive=True),
    ),
    drift=("sim.*",),
    drift_label="sim metrics drifted",
    title=("perf matrix ({flavor}): L={levels} requests={n_requests} "
           "warmup={warmup_requests} seed={seed}"),
    summary=(
        ("ns_per_access", "sim.ns_per_access"),
        ("stash_peak", "sim.stash_peak"),
        ("reshuffles", "sim.reshuffles_total"),
        ("row_hit", "sim.row_hit_rate"),
    ),
)

validate_report = PERF.validate
cell_key = PERF.cell_key
deterministic_view = PERF.deterministic_view
deterministic_bytes = PERF.deterministic_bytes
compare_reports = PERF.compare
render_report = PERF.render
