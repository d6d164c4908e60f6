"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``space``    -- closed-form space/utilization tables (exact at any L);
- ``simulate`` -- run one (scheme, benchmark) timing simulation;
  ``--integrity`` seals the data path and verifies it on every read,
  ``--checkpoint-every N --checkpoint PATH`` persists the run and
  ``--resume PATH`` continues it bit-identically; ``--trace-out PATH``
  writes a Perfetto-loadable Chrome trace of every protocol operation
  and ``--metrics-every N`` controls the JSONL snapshot cadence
  (telemetry observes only: results stay bit-identical);
  ``--shards N`` partitions the trace over N right-sized subtrees
  (:mod:`repro.core.sharding`) and reports the fleet makespan next to
  the per-shard results;
- ``telemetry`` -- ``telemetry view FILE`` renders a telemetry JSONL
  stream as summary tables;
- ``sweep``    -- scheme x benchmark matrix with normalized exec times;
- ``perf``     -- the performance harness: ``perf run [--smoke]``
  emits a machine-readable report (default generated/BENCH_perf.json),
  ``perf compare`` diffs two reports and fails when simulated DRAM
  ns per access rises (the CI gate);
- ``faults``   -- the robustness harness: ``faults run [--smoke]``
  sweeps fault kind x rate against the integrity-verified data path
  and emits generated/BENCH_faults.json; ``--require-detection`` fails
  unless every tampering fault was caught (the CI gate);
- ``serve``    -- the serving harness: ``serve bench [--smoke]``
  replays seed-pinned open-loop workloads (Poisson / bursty arrivals,
  zipf popularity) through the batching request scheduler over the
  oblivious KV store and emits generated/BENCH_serve.json with
  simulated-DRAM-ns latency percentiles;
  ``--require-dedup-win`` fails unless the batch policy beats naive
  FIFO (the CI gate); ``--trace-out`` writes a per-request Perfetto
  timeline; ``serve chaos [--smoke]`` runs the fault-injection
  campaign *under live load* (deadlines, load shedding, degraded-mode
  recovery) and emits generated/BENCH_chaos.json, with
  ``--require-detection`` as its CI gate; ``serve scaling [--smoke]``
  serves one workload on 1..16-shard AB-ORAM fleets
  (:mod:`repro.core.sharding`) and emits generated/BENCH_scaling.json
  -- the capacity curve: fleet throughput, per-shard memory, the
  kill-a-shard drill and the control-plane health summary, with
  ``--require-speedup`` as its CI gate; ``serve compare`` diffs two
  reports of any serve kind; ``serve demo`` runs the threaded KV server
  front-end against live client threads. ``telemetry view`` renders
  the ops stream ``serve chaos --shards N --ops-out FILE`` records.

``sweep``, ``perf run``, ``faults run``, ``serve bench``, ``serve
chaos``, ``serve scaling`` and ``simulate --shards`` all accept
``--workers N`` to fan their independent cells (or shards) over a
process pool; the deterministic report content never depends on the
worker count.

Every command prints the same text tables the benchmarks emit, so the
CLI doubles as a quick reproduction console. The paper's figures,
Table I and the section VI-C guessing attacker are reproduced by
``benchmarks/`` (``make bench``).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.report import render_mapping_table
from repro.analysis.space import space_table, utilization_table
from repro.core import schemes as schemes_mod
from repro.oram.config import MIN_LEVELS
from repro.sim import SimConfig
from repro.sim.results import breakdown_fractions
from repro.sim.runner import make_trace, run_suite, suite_benchmarks
from repro.telemetry import stderr_progress

ALL_SCHEMES = ["baseline", "ir", "dr", "dr-perf", "ns", "ab", "ring"]


def _resolve(names: Sequence[str], levels: int):
    return [schemes_mod.by_name(n, levels) for n in names]


# ---------------------------------------------------------------- commands

def cmd_space(args: argparse.Namespace) -> int:
    cfgs = _resolve(args.schemes, args.levels)
    print(render_mapping_table(
        space_table(cfgs),
        title=f"Space demand (L={args.levels})",
    ))
    print()
    print(render_mapping_table(
        utilization_table(cfgs),
        title="Space utilization",
    ))
    return 0


def _refuse(problem: Any) -> int:
    """Print ``problem`` as the command's one ``error:`` line; exit 2."""
    print(f"error: {problem}", file=sys.stderr)
    return 2


def _simulate_telemetry(args: argparse.Namespace):
    """Build the run's Telemetry handle from --trace-out/--metrics-out."""
    from repro.telemetry import Telemetry

    if not (args.trace_out or args.metrics_out):
        return None
    metrics_out = args.metrics_out
    if metrics_out is None and args.trace_out:
        # Default the JSONL stream next to the trace file.
        metrics_out = os.path.splitext(args.trace_out)[0] + ".jsonl"
    return Telemetry(
        trace_path=args.trace_out,
        metrics_path=metrics_out,
        metrics_every=args.metrics_every,
        meta={
            "scheme": args.scheme,
            "suite": args.suite,
            "bench": args.bench,
            "levels": args.levels,
            "requests": args.requests,
            "warmup": args.warmup,
            "seed": args.seed,
        },
    )


def _simulate_arg_error(args: argparse.Namespace) -> Optional[str]:
    """What is wrong with a fresh run's flags, if anything."""
    known = suite_benchmarks(args.suite)
    if args.bench not in known:
        return (f"unknown {args.suite} benchmark {args.bench}; "
                f"choose from {', '.join(known)}")
    for flag, value, least in (("--requests", args.requests, 1),
                               ("--pipeline-depth", args.pipeline_depth, 1),
                               ("--metrics-every", args.metrics_every, 0)):
        if value < least:
            return f"{flag} must be >= {least}, got {value}"
    return None


def _simulate_sharded(args: argparse.Namespace) -> int:
    """The ``simulate --shards N`` path: a partitioned fleet run."""
    from repro.core.sharding import run_sharded_sim

    incompatible = [
        ("--integrity", args.integrity),
        ("--check", args.check),
        ("--checkpoint", bool(args.checkpoint)),
        ("--checkpoint-every", bool(args.checkpoint_every)),
        ("--resume", bool(args.resume)),
        ("--trace-out", bool(args.trace_out)),
        ("--metrics-out", bool(args.metrics_out)),
        ("--pipeline-depth", args.pipeline_depth > 1),
    ]
    bad = [flag for flag, on in incompatible if on]
    if bad:
        return _refuse(f"--shards cannot be combined with {', '.join(bad)} "
                       "(shards are independent plain simulations; run "
                       "those flags against a single tree)")
    cfg = schemes_mod.by_name(args.scheme, args.levels)
    trace = make_trace(args.suite, args.bench, cfg.n_real_blocks,
                       args.requests, args.seed)
    try:
        outcome = run_sharded_sim(
            args.scheme, trace, cfg.n_real_blocks, args.shards,
            SimConfig(seed=args.seed, warmup_requests=args.warmup),
            workers=args.workers, progress=stderr_progress,
        )
    except ValueError as exc:
        return _refuse(exc)
    merged = outcome.merged_sim_block()
    print(render_mapping_table(
        [{
            "scheme": outcome.scheme,
            "benchmark": outcome.trace,
            "shards": outcome.num_shards,
            "shard_levels": outcome.shard_levels,
            "makespan_ms": merged["exec_ns"] / 1e6,
            "ns_per_access": merged["ns_per_access"],
            "stash_peak": merged["stash_peak"],
            "reshuffles": merged["reshuffles_total"],
            "row_hit": merged["row_hit_rate"],
        }],
        title=f"Sharded simulation (fleet of {outcome.num_shards})",
    ))
    print()
    print(render_mapping_table(
        [{
            "shard": i,
            "blocks": outcome.shard_blocks[i],
            "requests": outcome.shard_requests[i],
            "exec_ms": r.exec_ns / 1e6,
            "ns_per_access": r.ns_per_access,
            "stash_peak": r.stash_peak,
        } for i, r in enumerate(outcome.per_shard)],
        title="Per-shard results",
    ))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.engine import Simulation

    if args.shards < 1:
        return _refuse(f"--shards must be >= 1, got {args.shards}")
    problem = None if args.resume else _simulate_arg_error(args)
    if problem is not None:
        return _refuse(problem)
    if args.shards > 1:
        return _simulate_sharded(args)
    ckpt_path = args.checkpoint or args.resume
    if args.checkpoint_every and not ckpt_path:
        return _refuse("--checkpoint-every requires --checkpoint PATH "
                       "(or --resume)")
    telemetry = _simulate_telemetry(args)
    if telemetry is not None and (args.resume or args.checkpoint_every):
        # Checkpoints pickle the whole Simulation; telemetry holds open
        # file handles and a half-written stream.
        return _refuse("--trace-out/--metrics-out cannot be combined with "
                       "checkpointing or --resume")
    if args.resume:
        from repro.sim.checkpoint import load_checkpoint
        try:
            simulation = load_checkpoint(args.resume)
        except ValueError as exc:
            return _refuse(exc)
        print(f"resumed {args.resume} at request {simulation.position}"
              f"/{len(simulation.trace)}", file=sys.stderr)
    else:
        from repro.oram.recovery import RobustnessConfig
        from repro.oram.validate import diagnose_robustness
        robustness = (
            RobustnessConfig(integrity=True) if args.integrity else None
        )
        for finding in diagnose_robustness(
            robustness, n_requests=args.requests,
            checkpoint_every=args.checkpoint_every,
        ):
            print(finding, file=sys.stderr)
        cfg = schemes_mod.by_name(args.scheme, args.levels)
        trace = make_trace(args.suite, args.bench, cfg.n_real_blocks,
                           args.requests, args.seed)
        try:
            simulation = Simulation(cfg, trace, SimConfig(
                seed=args.seed,
                warmup_requests=args.warmup,
                check_invariants=args.check,
                robustness=robustness,
                pipeline_depth=args.pipeline_depth,
            ), telemetry=telemetry)
        except ValueError as exc:
            if telemetry is not None:
                telemetry.close()
            return _refuse(exc)
    try:
        result = simulation.run(
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=ckpt_path,
        )
    finally:
        if telemetry is not None:
            telemetry.close()
    fr = breakdown_fractions(result)
    print(render_mapping_table(
        [{
            "scheme": result.scheme,
            "benchmark": result.trace,
            "exec_ms": result.exec_ns / 1e6,
            "ns_per_access": result.ns_per_access,
            "bandwidth_GBps": result.bandwidth_gbps,
            "row_hit": result.row_hit_rate,
            "readpath_p50_ns": result.readpath_p50_ns,
            "readpath_p99_ns": result.readpath_p99_ns,
            "stash_peak": result.stash_peak,
            "ext_ratio": result.extension_ratio,
        }],
        title="Simulation result",
    ))
    print()
    print(render_mapping_table(
        [{"op": k, "time_fraction": v} for k, v in fr.items()],
        title="Memory-time breakdown",
    ))
    if result.robustness is not None:
        rb = result.robustness
        counters = {k: v for k, v in rb["counters"].items() if v}
        rows = [{"event": k, "count": v} for k, v in counters.items()]
        print()
        print(render_mapping_table(
            rows or [{"event": "(none)", "count": 0}],
            title="Robustness events",
        ))
    if telemetry is not None:
        if telemetry.trace_path:
            print(f"\nwrote {telemetry.trace_path} "
                  f"({len(telemetry.spans)} spans)")
        if telemetry.metrics_path:
            print(f"wrote {telemetry.metrics_path} "
                  f"({telemetry.snapshots} snapshots)")
    return 0


def cmd_telemetry_view(args: argparse.Namespace) -> int:
    from repro.telemetry import render_stream

    try:
        print(render_stream(args.file))
    except (OSError, ValueError) as exc:
        return _refuse(exc)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfgs = _resolve(args.schemes, args.levels)
    known = suite_benchmarks(args.suite)
    benches = args.benchmarks or known
    unknown = [b for b in benches if b not in known]
    if unknown:
        return _refuse(f"unknown {args.suite} benchmark(s) "
                       f"{', '.join(unknown)}; choose from {', '.join(known)}")
    if 0 < args.warmup >= args.requests:
        return _refuse(f"--warmup ({args.warmup}) must be below --requests "
                       f"({args.requests})")
    results = run_suite(
        cfgs,
        suite=args.suite,
        benchmarks=benches,
        n_requests=args.requests,
        seed=args.seed,
        sim=SimConfig(seed=args.seed, warmup_requests=args.warmup),
        workers=args.workers,
    )
    baseline = cfgs[0].name
    base = results[baseline]
    rows = []
    for bench in benches:
        row = {"benchmark": bench}
        for cfg in cfgs:
            row[cfg.name] = (results[cfg.name][bench].exec_ns
                             / base[bench].exec_ns)
        rows.append(row)
    print(render_mapping_table(
        rows,
        title=f"Execution time normalized to {baseline} (L={args.levels})",
    ))
    return 0


@dataclass(frozen=True)
class _Harness:
    """One report-emitting sub-command, as data for :func:`cmd_harness_run`.

    ``module`` owns ``smoke_config`` / ``full_config`` / the ``run``
    function / the gate's check function (resolved by name at call
    time); ``fields`` are the config fields a same-named argparse dest
    overrides (a ``*_out`` field names an artifact the run writes).
    The report's spec validates, writes and renders the result.
    """

    module: str
    run: str
    fields: Tuple[str, ...]
    #: (flag, check function, finding prefix, pass message).
    gate: Optional[Tuple[str, str, str, str]] = None


_HARNESSES: Dict[str, _Harness] = {
    "perf": _Harness(
        "repro.perf.runner", "run_perf",
        fields=("schemes", "benchmarks", "levels", "n_requests",
                "warmup_requests", "seed"),
    ),
    "faults": _Harness(
        "repro.faults.campaign", "run_campaign",
        fields=("rates", "levels", "n_requests", "seed", "integrity"),
        gate=("require_detection", "detection_check", "DETECTION GAP",
              "detection check: all tampering faults detected"),
    ),
    "serve": _Harness(
        "repro.serve.bench", "run_serve",
        fields=("levels", "seed", "trace_out"),
        gate=("require_dedup_win", "dedup_check", "DEDUP GAP",
              "dedup check: batch policy beats naive FIFO"),
    ),
    "chaos": _Harness(
        "repro.serve.chaos", "run_chaos",
        fields=("levels", "seed", "trace_out", "num_shards", "slo_out",
                "ops_out"),
        gate=("require_detection", "chaos_check", "CHAOS GAP",
              "chaos check: availability floors held, all tampering "
              "faults detected under live load"),
    ),
    "scaling": _Harness(
        "repro.serve.scaling", "run_scaling",
        fields=("seed", "measured_levels"),
        gate=("require_speedup", "scaling_check", "SCALING GAP",
              "scaling check: fleet speedup >= {min_speedup:g}x at 4 "
              "shards, drills recovered above their availability floors, "
              "control plane healthy"),
    ),
}


def cmd_harness_run(args: argparse.Namespace) -> int:
    """Every ``<harness> run``: factory -> overrides -> run -> self-check
    -> write -> render -> gate, driven by the :data:`_HARNESSES` row."""
    from importlib import import_module

    from repro.report import save_report, spec_for

    if args.workers < 1:
        return _refuse(f"--workers must be >= 1, got {args.workers}")
    harness = _HARNESSES[args.harness]
    module = import_module(harness.module)
    overrides = {
        name: tuple(value) if isinstance(value, list) else value
        for name in harness.fields
        if (value := getattr(args, name)) is not None
    }
    factory = module.smoke_config if args.smoke else module.full_config
    try:
        cfg = factory(progress=stderr_progress, workers=args.workers,
                      **overrides)
    except ValueError as exc:
        return _refuse(exc)
    doc = getattr(module, harness.run)(cfg)
    errors = save_report(doc, args.out)
    if errors:
        for e in errors:
            print(f"error: report self-check failed: {e}", file=sys.stderr)
        return 2
    print(spec_for(doc).render(doc))
    print(f"\nwrote {args.out}")
    for name in harness.fields:
        if name.endswith("_out") and getattr(args, name):
            print(f"wrote {getattr(args, name)}")
    if harness.gate is not None and getattr(args, harness.gate[0]):
        _, check, prefix, passed = harness.gate
        problems = getattr(module, check)(doc)
        if problems:
            for line in problems:
                print(f"{prefix} {line}")
            return 1
        print(passed.format(**doc["config"]))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``perf compare`` / ``serve compare``: gate two reports by kind."""
    from repro.report import EXIT_OK, compare_files

    code, messages = compare_files(args.baseline, args.new, args.kinds)
    for msg in messages:
        print(msg)
    if args.warn_only and code != EXIT_OK:
        print(f"(warn-only: suppressing exit code {code})")
        return EXIT_OK
    return code


def cmd_serve_demo(args: argparse.Namespace) -> int:
    """Exercise the threaded front-end with live client threads."""
    import threading

    from repro.serve import GET, KVServer, build_stack
    from repro.serve.loadgen import key_name, value_for
    from repro.serve.server import POLICY

    if not 1 <= args.clients <= args.requests:
        # Every client thread serves requests // clients operations.
        return _refuse(f"need 1 <= --clients ({args.clients}) <= "
                       f"--requests ({args.requests})")
    stack = build_stack(scheme=args.scheme, levels=args.levels,
                        seed=args.seed, observer=True)
    server = KVServer(stack.kv, seed=args.seed)
    n_keys = max(2, args.requests // 8)

    def client(cid: int) -> None:
        rng = np.random.default_rng(args.seed * 1000 + cid)
        for i in range(args.requests // args.clients):
            key = key_name(int(rng.integers(n_keys)))
            if rng.random() < 0.5:
                value = value_for(key, cid * 100_000 + i)
                server.put(key, value)
            else:
                server.submit(GET, key)

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(args.clients)]
    with server:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    stats = server.stats()
    print(render_mapping_table(
        [{
            "requests": stats["requests"],
            "batches": stats["batches"],
            "dedup_hits": stats["dedup_hits"],
            "coalesced_puts": stats["coalesced_puts"],
            "accesses": stats["accesses_issued"],
            "mean_batch": (stats["requests"] / stats["batches"]
                           if stats["batches"] else 0.0),
        }],
        title=f"serve demo: {args.clients} clients x "
              f"{args.requests // args.clients} ops ({POLICY})",
    ))
    if stack.attacker is not None:
        print(f"attacker advantage: {stack.attacker.advantage():+.4f} "
              f"(success {stack.attacker.success_rate:.4f}, "
              f"expected {stack.attacker.expected_rate:.4f})")
    return 0


# ------------------------------------------------------------------ parser

def _harness_parser(
    sub: Any, command: str, harness: str, title: str,
    smoke_help: str, workers_help: str,
) -> argparse.ArgumentParser:
    """A report-emitting sub-command: the flags all five share."""
    p = sub.add_parser(command, help=title)
    out = f"generated/BENCH_{harness}.json"
    p.add_argument("--smoke", action="store_true", help=smoke_help)
    p.add_argument("--out", default=out,
                   help=f"report path (default: {out}; the directory is "
                        "created if missing)")
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    p.set_defaults(func=cmd_harness_run, harness=harness)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AB-ORAM reproduction console",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="closed-form space tables")
    p.add_argument("--levels", type=int, default=24)
    p.add_argument("--schemes", nargs="+",
                   default=["baseline", "ir", "dr", "ns", "ab"],
                   choices=ALL_SCHEMES)
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("simulate", help="one (scheme, benchmark) run")
    p.add_argument("--scheme", default="ab", choices=ALL_SCHEMES)
    p.add_argument("--suite", default="spec", choices=["spec", "parsec"])
    p.add_argument("--bench", default="mcf")
    p.add_argument("--levels", type=int, default=12)
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pipeline-depth", type=int, default=1, metavar="D",
                   help="transaction-pipeline depth: overlap the path "
                        "read of access k+1 with the reshuffle/eviction "
                        "drain of access k (default 1 = the serial "
                        "controller, bit-identical to earlier releases; "
                        "logical results are identical at every depth)")
    p.add_argument("--check", action="store_true",
                   help="verify protocol invariants after the run")
    p.add_argument("--integrity", action="store_true",
                   help="seal the data path and verify bucket MACs plus "
                        "the Merkle root on every read path")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="checkpoint file for --checkpoint-every")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="pickle the full simulation every N requests")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="resume from a checkpoint (continues "
                        "bit-identically; scheme/trace flags are ignored)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a Chrome trace-event JSON (load in Perfetto "
                        "or chrome://tracing) with one span per protocol "
                        "operation, in DRAM-model ns; telemetry only "
                        "observes -- the results stay bit-identical")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="telemetry JSONL stream path (default: derived "
                        "from --trace-out with a .jsonl suffix)")
    p.add_argument("--metrics-every", type=int, default=100, metavar="N",
                   help="snapshot stash/DeadQ/rental state every N "
                        "requests into the JSONL stream (default: 100; "
                        "0 disables periodic snapshots)")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="partition the trace over N independent subtrees "
                        "via the keyed-PRF shard map and report the fleet "
                        "makespan (default 1 = one tree; incompatible "
                        "with checkpointing, telemetry, --integrity and "
                        "--pipeline-depth > 1)")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width for --shards fan-out (results "
                        "are byte-identical to --workers 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="scheme x benchmark matrix")
    p.add_argument("--schemes", nargs="+",
                   default=["baseline", "dr", "ns", "ab"],
                   choices=ALL_SCHEMES)
    p.add_argument("--suite", default="spec", choices=["spec", "parsec"])
    p.add_argument("--benchmarks", nargs="*", default=None)
    p.add_argument("--levels", type=int, default=12)
    p.add_argument("--requests", type=int, default=800)
    p.add_argument("--warmup", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width for the matrix cells "
                        "(results are identical to --workers 1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("perf", help="performance harness (run / compare)")
    perf_sub = p.add_subparsers(dest="perf_command", required=True)

    pr = _harness_parser(
        perf_sub, "run", "perf", "run the perf matrix",
        smoke_help="seconds-scale matrix for CI",
        workers_help="process-pool width for the matrix cells; the "
                     "report is byte-identical to --workers 1")
    pr.add_argument("--schemes", nargs="+", default=None,
                    choices=ALL_SCHEMES)
    pr.add_argument("--benchmarks", nargs="+", default=None)
    pr.add_argument("--levels", type=int, default=None)
    pr.add_argument("--requests", type=int, default=None,
                    dest="n_requests", metavar="REQUESTS")
    pr.add_argument("--warmup", type=int, default=None,
                    dest="warmup_requests", metavar="WARMUP")
    pr.add_argument("--seed", type=int, default=None)

    pc = perf_sub.add_parser("compare", help="diff two perf reports (a "
                                             "simulated ns/access rise "
                                             "over 10%% is a regression)")
    pc.add_argument("baseline", help="baseline BENCH_perf.json")
    pc.add_argument("new", help="candidate BENCH_perf.json")
    pc.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 (CI soft gate)")
    pc.set_defaults(func=cmd_compare, kinds=("repro-perf-report",))

    p = sub.add_parser("faults", help="fault-injection campaign harness")
    faults_sub = p.add_subparsers(dest="faults_command", required=True)

    fr = _harness_parser(
        faults_sub, "run", "faults", "sweep fault kind x rate",
        smoke_help="seconds-scale campaign for CI",
        workers_help="process-pool width for the kind x rate cells; "
                     "the report is byte-identical to --workers 1")
    fr.add_argument("--rates", nargs="+", type=float, default=None,
                    help="per-operation fault probabilities to sweep")
    fr.add_argument("--levels", type=int, default=None)
    fr.add_argument("--requests", type=int, default=None,
                    dest="n_requests", metavar="REQUESTS")
    fr.add_argument("--seed", type=int, default=None)
    fr.add_argument("--no-integrity", action="store_false", default=None,
                    dest="integrity",
                    help="drop the Merkle tree (replays go undetected; "
                        "for demonstrating why integrity matters)")
    fr.add_argument("--require-detection", action="store_true",
                    help="exit 1 unless every tampering fault (bit flip, "
                        "replay) was detected -- the CI gate")

    p = sub.add_parser("serve", help="serving harness (bench / compare / "
                                     "demo)")
    serve_sub = p.add_subparsers(dest="serve_command", required=True)

    sb = _harness_parser(
        serve_sub, "bench", "serve",
        "replay open-loop workloads through the batching scheduler",
        smoke_help="seconds-scale matrix for CI",
        workers_help="process-pool width for the workload x policy "
                     "cells; the report is byte-identical to --workers 1")
    sb.add_argument("--levels", type=int, default=None)
    sb.add_argument("--seed", type=int, default=None)
    sb.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write a per-request Perfetto trace of the most "
                         "loaded (workload, batch) cell: queue spans, "
                         "service spans, and ORAM op spans on separate "
                         "tracks, all in simulated DRAM ns")
    sb.add_argument("--require-dedup-win", action="store_true",
                    help="exit 1 unless the batch policy issues fewer "
                         "oblivious accesses than naive FIFO on workloads "
                         "that expect it -- the CI gate")

    sx = _harness_parser(
        serve_sub, "chaos", "chaos",
        "fault-injection campaign under live serving load",
        smoke_help="seconds-scale campaign for CI",
        workers_help="process-pool width for the campaign cells; the "
                     "report is byte-identical to --workers 1")
    sx.add_argument("--levels", type=int, default=None)
    sx.add_argument("--seed", type=int, default=None)
    sx.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write a Perfetto trace of the degraded-mode "
                         "cell: request lanes plus a resilience track "
                         "with degraded windows and fault markers (with "
                         "--shards: one merged fleet trace with per-shard "
                         "process tracks and router flow events)")
    sx.add_argument("--shards", type=int, default=None, metavar="N",
                    dest="num_shards",
                    help="partition every cell over an N-shard fleet of "
                         "independently seeded stacks; the report gains "
                         "per-shard, control-plane and SLO blocks, all "
                         "byte-identical at any worker count")
    sx.add_argument("--slo-out", default=None, metavar="PATH",
                    help="write the slo_window/slo_alert records derived "
                         "from the fleet's completions as JSONL (requires "
                         "--shards)")
    sx.add_argument("--ops-out", default=None, metavar="PATH",
                    help="write the per-shard ops stream 'repro "
                         "telemetry view' renders (requires --shards)")
    sx.add_argument("--require-detection", action="store_true",
                    help="exit 1 unless every cell held its availability "
                         "floor and every injected tampering fault was "
                         "detected while serving -- the CI gate")

    ss = _harness_parser(
        serve_sub, "scaling", "scaling",
        "capacity curve over 1..N shard AB-ORAM fleets",
        smoke_help="seconds-scale curve for CI (2^16 blocks, "
                   "shards 1/2/4, plus the kill-a-shard drill)",
        workers_help="process-pool width for each fleet's shards; "
                     "the report is byte-identical to --workers 1")
    ss.add_argument("--seed", type=int, default=None)
    ss.add_argument("--measured-levels", type=int, default=None,
                    help="tree depth the measured shard stacks run at "
                         "(memory analytics always use the right-sized "
                         "per-shard depth)")
    ss.add_argument("--require-speedup", action="store_true",
                    help="exit 1 unless every blocks row's 4-shard fleet "
                         "beats its 1-shard fleet by the report's "
                         "min_speedup (3x) in simulated ns/request, every "
                         "drill recovers above its availability floor and "
                         "the control plane ends healthy -- the CI gate")

    sc = serve_sub.add_parser("compare", help="diff two serve, chaos or "
                                              "scaling reports "
                                              "(kind-dispatched; a 10%% "
                                              "simulated-throughput drop "
                                              "or p99 rise is a "
                                              "regression)")
    sc.add_argument("baseline", help="baseline BENCH_serve.json, "
                                     "BENCH_chaos.json or "
                                     "BENCH_scaling.json")
    sc.add_argument("new", help="candidate report of the same kind")
    sc.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 (CI soft gate)")
    sc.set_defaults(func=cmd_compare, kinds=(
        "repro-serve-report", "repro-chaos-report", "repro-scaling-report",
    ))

    sd = serve_sub.add_parser("demo", help="threaded KV server demo with "
                                           "live client threads")
    sd.add_argument("--scheme", default="ab", choices=ALL_SCHEMES)
    sd.add_argument("--levels", type=int, default=10)
    sd.add_argument("--seed", type=int, default=0)
    sd.add_argument("--clients", type=int, default=4)
    sd.add_argument("--requests", type=int, default=200,
                    help="total operations across all clients")
    sd.set_defaults(func=cmd_serve_demo)

    p = sub.add_parser("telemetry", help="inspect telemetry streams")
    tel_sub = p.add_subparsers(dest="telemetry_command", required=True)
    tv = tel_sub.add_parser("view", help="render a telemetry JSONL stream")
    tv.add_argument("file", help="JSONL stream written by --metrics-out "
                                 "(or derived from --trace-out)")
    tv.set_defaults(func=cmd_telemetry_view)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # ``python -m repro perf --smoke`` is sugar for ``perf run --smoke``
    # (and likewise for ``faults``; ``serve`` defaults to its bench).
    if argv and argv[0] in ("perf", "faults") and (
        len(argv) == 1 or argv[1].startswith("-")
    ):
        argv.insert(1, "run")
    if argv and argv[0] == "serve" and (
        len(argv) == 1 or argv[1].startswith("-")
    ):
        argv.insert(1, "bench")
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every --levels builds a tree: refuse a height no tree has up front.
    if getattr(args, "levels", None) is not None and args.levels < MIN_LEVELS:
        return _refuse(f"--levels must be >= {MIN_LEVELS}, got {args.levels}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
