"""``repro.serve``: a request front-end over the oblivious KV store.

The serving layer turns the single-caller
:class:`~repro.app.kvstore.ObliviousKV` into a *system*:

- :mod:`repro.serve.request` -- the request/completion records every
  layer exchanges;
- :mod:`repro.serve.scheduler` -- the batching scheduler: admits one
  oblivious access at a time but batches and reorders queued clients,
  deduping same-block hits (the block is stash-resident after the
  first access) and coalescing superseded writes;
- :mod:`repro.serve.loadgen` -- the open-loop load generator:
  seed-pinned Poisson and bursty arrivals, zipf key popularity over
  key universes up to millions of keys;
- :mod:`repro.serve.replay` -- ``serve_slice``, the one recipe every
  served shard is cut from, and ``replay``, the serving loop under its
  null policy;
- :mod:`repro.serve.server` -- a thread-pool front-end for wall-clock
  serving: clients submit concurrently, one scheduler thread services
  batches;
- :mod:`repro.serve.bench` / :mod:`~repro.serve.schema` -- the
  ``BENCH_serve.json`` harness (the tail-latency yardstick CI gates;
  the schema module declares the serve, chaos and scaling formats,
  gates and renderings as :class:`repro.report.ReportSpec` tables);
- :mod:`repro.serve.resilience` -- the one serving loop, on the
  simulated DRAM-ns clock (open loop: arrivals never wait for service,
  so queueing is measured honestly): per-request deadlines, bounded
  admission with load shedding, and degraded-mode serving
  (stash-resident reads + a write journal) while quarantined buckets
  rebuild;
- :mod:`repro.serve.fleet` -- the serving fleet: one shard task, fold
  and trace writer behind the keyed-PRF partition map
  (:mod:`repro.core.sharding`) for every served report cell (a bench
  cell is one shard), the health control plane, the kill-a-shard drill;
- :mod:`repro.serve.chaos` -- the ``BENCH_chaos.json`` campaign: fault
  injection under live load, gated by ``fault_gate`` (drills share it);
- :mod:`repro.serve.scaling` -- the ``BENCH_scaling.json`` capacity
  curve: one workload served by 1..16-shard fleets, gated on fleet
  speedup, drill availability, and control-plane health.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.serve.chaos": ("ChaosCell", "ChaosConfig", "run_chaos"),
    "repro.serve.scaling": (
        "ScalingCell", "ScalingConfig", "run_scaling", "scaling_check",
    ),
    "repro.serve.loadgen": (
        "WorkloadConfig", "generate_requests", "key_name", "value_for",
    ),
    "repro.serve.request": ("DELETE", "GET", "PUT", "Completion", "Request"),
    "repro.serve.resilience": (
        "ReplayResult", "ResilienceConfig", "resilient_replay",
    ),
    "repro.serve.scheduler": ("BatchScheduler",),
    "repro.serve.server": ("KVServer",),
    "repro.serve.stack": ("ServedStack", "build_stack"),
})
