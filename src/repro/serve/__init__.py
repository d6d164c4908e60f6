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
  report cell is cut from, and ``replay``, the serving loop under its
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
- :mod:`repro.serve.fleet` -- the serving fleet: one shard task and
  one fold behind the keyed-PRF partition map
  (:mod:`repro.core.sharding`) for every sharded run, the health
  control plane, the kill-a-shard drill;
- :mod:`repro.serve.chaos` -- the ``BENCH_chaos.json`` campaign: fault
  injection under live load, gated on availability and detection;
- :mod:`repro.serve.scaling` -- the ``BENCH_scaling.json`` capacity
  curve: one workload served by 1..16-shard fleets, gated on fleet
  speedup, drill availability, and control-plane health.
"""

from repro.serve.chaos import ChaosCell, ChaosConfig, run_chaos
from repro.serve.scaling import (
    ScalingCell, ScalingConfig, run_scaling, scaling_check,
)
from repro.serve.loadgen import WorkloadConfig, generate_requests, key_name, value_for
from repro.serve.request import DELETE, GET, PUT, Completion, Request
from repro.serve.resilience import (
    ReplayResult, ResilienceConfig, resilient_replay,
)
from repro.serve.scheduler import BatchScheduler
from repro.serve.server import KVServer
from repro.serve.stack import ServedStack, build_stack

__all__ = [
    "BatchScheduler",
    "ChaosCell",
    "ChaosConfig",
    "Completion",
    "DELETE",
    "GET",
    "KVServer",
    "PUT",
    "ReplayResult",
    "Request",
    "ResilienceConfig",
    "ScalingCell",
    "ScalingConfig",
    "ServedStack",
    "WorkloadConfig",
    "build_stack",
    "run_scaling",
    "scaling_check",
    "generate_requests",
    "key_name",
    "resilient_replay",
    "run_chaos",
    "value_for",
]
