#!/usr/bin/env python3
"""End-to-end + per-layer wall-clock benchmark (see README.md).

Two ways in:

- one measured run, the form ``BENCHMARK.json``'s driver uses::

      python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

  prints every metric by name and, as the last line of stdout, one JSON
  object with ``correct``, ``attempted``, ``failed`` and ``metrics``
  (the end-to-end metrics with ``--trace 0``, the per-layer metrics
  with ``--trace 1``);

- the whole report, for people::

      python3 benchmarks/e2e/run.py [--workload W] [--repeats 5] [--seed 0]
                                    [--out F] [--trace-out F] [--quick]

  runs every (workload, repeat) in a fresh interpreter, round-robin
  across workloads, plus one traced run per workload, and checks the
  determinism and host-noise guards across them.

Either way the exit status is non-zero when any correctness check or
guard fails. Nothing outside the checkout is read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from hostclock import QuietClock, Timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 3
#: The cold import of the program, timed in a fresh interpreter.
_IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:]
from hostclock import QuietClock
t = QuietClock().timed(lambda: __import__("workloads"))
print(t.wall_s, t.quiet_s)
"""
#: ``--quick``: smoke-sized op counts, one set-up, one interpreter.
QUICK_SECONDS = 0.1
#: Calibration drift beyond this marks a result ``noisy``.
NOISY_SPREAD = 0.10

#: Clock domain of each end-to-end metric; per-layer metrics are host
#: time (``*_s``, ``*_us``, ``*.overhead``) or counts.
CLOCK = {
    "setup_s": "host", "ops_per_s": "host", "peak_rss_mb": "host",
    "sim_ns_per_op": "simulated", "sim_p50_us": "simulated",
    "sim_p99_us": "simulated", "accesses_per_op": "counted",
    "ok_share": "counted", "space_per_user_byte": "closed-form",
}

#: Traced layer -> metric prefix of its ``self_s`` / ``calls``.
LAYER_PREFIX = {
    "serve.replay": "replay", "serve.scheduler": "scheduler",
    "app.kvstore": "kvstore", "oram.ring": "ring", "core.remote": "remote",
    "oram.datastore": "datastore", "crypto.engine": "crypto.engine",
    "crypto.integrity": "crypto.integrity", "mem": "mem", "sim.engine": "sim",
}
_CALL_COUNTED = ("scheduler", "remote", "crypto.engine", "crypto.integrity", "mem")


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


#: The first (cold) import of the program, timed: it is set-up.
_IMPORTED: Optional[Timed] = None


def import_program(clock: Optional[QuietClock] = None) -> Timed:
    """Import the program under test from the checkout's ``src/``."""
    global _IMPORTED
    if _IMPORTED is None:
        for path in (ROOT / "src", HERE):
            if str(path) not in sys.path:
                sys.path.insert(0, str(path))
        try:
            _IMPORTED = (clock or QuietClock()).timed(
                lambda: __import__("workloads")
            )
        except ImportError as exc:
            sys.exit(f"benchmarks/e2e: cannot import the program from "
                     f"{ROOT / 'src'}: {exc}")
    return _IMPORTED


def fresh_import() -> Timed:
    """The import once more, in an interpreter of its own: set-up is
    sampled several times a run, and this process can import only once."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, check=True,
    )
    wall_s, quiet_s = map(float, proc.stdout.split())
    return Timed(None, wall_s, quiet_s)


# ------------------------------------------------------------- host noise

def spread(samples: Sequence[float]) -> float:
    """(p90 - p10) / median: a handful of blips among hundreds of
    samples should not decide whether a whole report is ``noisy``."""
    deciles = statistics.quantiles(samples, n=10)
    return (deciles[-1] - deciles[0]) / statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set, this process plus its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ------------------------------------------------------------ one measured run

def measure(
    name: str, seed: int, seconds: float, trace: bool,
    setups: int = SETUPS, trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """One run of one workload in this interpreter; returns the result."""
    clock = QuietClock()
    imported = import_program(clock)
    wl = imported.value
    import oracle
    from tracer import Tracer

    spec = load_spec()
    w = wl.make(name, seed, seconds / wl.NOMINAL_SECONDS, repeats=setups)
    findings = oracle.check_paper_space()
    if not trace:
        built = [clock.timed(w.setup) for _ in range(setups)]
        m = w.run(clock)
        exact = m.exact
        rss_mb = peak_rss_mb()      # before the import probes: children too
        imports = [imported] + [fresh_import() for _ in range(setups - 1)]
        metrics = {
            "setup_s": statistics.median(i.quiet_s for i in imports)
            + statistics.median(b.quiet_s for b in built),
            "ops_per_s": m.ops / m.quiet_s,
            "peak_rss_mb": rss_mb,
            **{k: v for k, v in exact.items() if k != "failed_share"},
            "ok_share": 1.0 - exact["failed_share"],
        }
        raw = {
            "setup_s": statistics.median(i.wall_s for i in imports)
            + statistics.median(b.wall_s for b in built),
            "ops_per_s": m.ops / m.wall_s,
        }
        names = [e["name"] for e in spec["end_to_end"]]
    else:
        tracer = Tracer()
        reference, m, extra = w.trace(clock, tracer)
        exact = m.exact
        raw = {}
        findings += reference.findings
        if reference.exact != m.exact:
            findings.append(
                f"determinism: traced run changed the exact metrics: "
                f"{reference.exact} -> {m.exact}"
            )
        names = [e["name"] for e in spec["per_layer"]]
        metrics = layer_metrics(names, w, reference, m, extra, tracer)
        metrics["harness.import_s"] = imported.wall_s
        metrics["host.calibration_ms"] = clock.median_ms
        metrics["host.slowdown"] = m.wall_s / m.quiet_s
        if trace_out:
            tracer.write_chrome_trace(
                trace_out, {"workload": name, "seed": seed, "ops": m.ops}
            )
    findings += m.findings
    if sorted(metrics) != sorted(names):
        raise RuntimeError(
            f"metrics emitted {sorted(set(metrics) ^ set(names))} "
            f"do not match BENCHMARK.json"
        )
    failed = m.violations + (0 if w.refuses_by_design else m.ops - m.ok_ops)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "op": w.op_name, "correct": not findings and failed == 0,
        "attempted": m.ops, "failed": failed, "findings": findings,
        "metrics": metrics, "raw_wall": raw, "exact": exact,
        "latency_samples": m.latency_samples,
        "calibration_ms": [c * 1e3 for c in clock.samples],
    }


def layer_metrics(
    names: Sequence[str], w: Any, reference: Any, traced: Any,
    extra: Dict[str, float], tracer: Any,
) -> Dict[str, float]:
    import numpy as np

    out: Dict[str, float] = dict.fromkeys(names, 0.0)
    out.update(traced.counters)
    out.update(w.phases)
    out.update(extra)
    out.update(tracer.op_kind_metrics())
    for layer, prefix in LAYER_PREFIX.items():
        out[f"{prefix}.self_s"] = tracer.self_s(layer)
        if prefix in _CALL_COUNTED:
            out[f"{prefix}.calls"] = tracer.calls(layer)
    out["datastore.verify_paths"] = tracer.method_calls.get(
        "oram.datastore.verify_path", 0
    )
    if tracer.op_durations:
        durations = np.asarray(tracer.op_durations) * 1e6
        out["step.p50_us"] = float(np.percentile(durations, 50))
        out["step.p99_us"] = float(np.percentile(durations, 99))
    out["trace.overhead"] = traced.quiet_s / reference.quiet_s
    out["trace.layer_sum_ratio"] = tracer.layer_sum_s() / traced.wall_s
    return out


def emit(result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """Print one run: named metrics, findings, detail line, result line."""
    table = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    units = {e["name"]: e["unit"] for e in table}
    print(f"# {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={int(result['trace'])} "
          f"({result['attempted']} {result['op']} attempted, "
          f"{result['latency_samples']} latency samples)")
    for name, value in result["metrics"].items():
        clock = CLOCK.get(name, "")
        print(f"  {name:<28} {value:>16.6g} {units[name]:<6} {clock}")
    if not result["trace"]:
        print(f"  {'failed_share':<28} "
              f"{result['exact']['failed_share']:>16.6g} ratio  counted")
        for name, value in result["raw_wall"].items():
            print(f"  {name + ' (raw wall)':<28} {value:>16.6g} "
                  f"{units[name]:<6} host, not quiet-host scaled")
    for finding in result["findings"]:
        print(f"  CHECK FAILED: {finding}")
    print("#detail " + json.dumps(result, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))


# ------------------------------------------------------------ the whole report

def _child(args: List[str]) -> Dict[str, Any]:
    """Run one measured run in a fresh interpreter; parse its detail."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        capture_output=True, text=True, cwd=str(ROOT),
    )
    for line in proc.stdout.splitlines():
        if line.startswith("#detail "):
            return json.loads(line[len("#detail "):])
    sys.stderr.write(proc.stdout + proc.stderr)
    raise RuntimeError(f"run {' '.join(args)} printed no result "
                       f"(exit {proc.returncode})")


def _with_workload(path: str, name: str) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}.{name}{p.suffix}"))


def report(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    wl_names = [w["name"] for w in spec["workloads"]]
    chosen = [args.workload] if args.workload else wl_names
    seconds = QUICK_SECONDS if args.quick else args.seconds
    repeats = 1 if args.quick else args.repeats
    clock = QuietClock()
    clock.sample(3)

    def one(name: str, trace: bool) -> Dict[str, Any]:
        trace_out = (
            _with_workload(args.trace_out, name)
            if trace and args.trace_out else None
        )
        if args.quick:
            return measure(name, args.seed, seconds, trace, 1, trace_out)
        child = ["--workload", name, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace_out:
            child += ["--trace-out", trace_out]
        return _child(child)

    runs: Dict[str, List[Dict[str, Any]]] = {n: [] for n in chosen}
    for _ in range(repeats):            # round-robin: repeat k of every workload
        for name in chosen:
            runs[name].append(one(name, False))
        clock.sample(3)
    traced = {name: one(name, True) for name in chosen}
    clock.sample(3)
    calibration = [c * 1e3 for c in clock.samples]
    for batch in list(runs.values()) + [[t] for t in traced.values()]:
        for r in batch:
            calibration += r["calibration_ms"]

    problems: List[str] = []
    e2e = {e["name"]: e for e in spec["end_to_end"]}
    doc: Dict[str, Any] = {
        "seed": args.seed, "seconds": seconds, "repeats": repeats,
        "workloads": {},
    }
    for name in chosen:
        first = runs[name][0]
        for r in runs[name] + [traced[name]]:
            problems += [f"{name}: {f}" for f in r["findings"]]
            if r["failed"]:
                problems.append(f"{name}: {r['failed']} operations failed")
            if r["exact"] != first["exact"]:
                kind = "traced run" if r["trace"] else "repeat"
                problems.append(
                    f"{name}: determinism guard: {kind} exact metrics "
                    f"{r['exact']} != {first['exact']}"
                )
        ratio = traced[name]["metrics"]["trace.layer_sum_ratio"]
        if not 0.95 <= ratio <= 1.05:
            problems.append(f"{name}: trace.layer_sum_ratio {ratio:.3f} "
                            f"outside 0.95-1.05")
        print(f"\n== {name}: {first['attempted']} {first['op']}, "
              f"{first['latency_samples']} latency samples, n={repeats}")
        summary = {}
        for metric, entry in e2e.items():
            values = [r["metrics"][metric] for r in runs[name]]
            summary[metric] = {
                "median": statistics.median(values), "min": min(values),
                "max": max(values), "n": len(values), "unit": entry["unit"],
            }
            print(f"  {metric:<22} {statistics.median(values):>14.6g} "
                  f"{entry['unit']:<6} [{min(values):.6g} .. {max(values):.6g}] "
                  f"{CLOCK[metric]}, bound {entry['bound']:.0%}")
        print(f"  {'failed_share':<22} {first['exact']['failed_share']:>14.6g} ratio")
        layers = traced[name]["metrics"]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print("  -- per layer (one traced run; share of summed self time)")
        for entry in spec["per_layer"]:
            metric, value = entry["name"], layers[entry["name"]]
            share = (f"  {value / total:6.1%}"
                     if metric.endswith(".self_s") and total else "")
            print(f"  {metric:<30} {value:>14.6g} {entry['unit']:<6}{share}")
        doc["workloads"][name] = {
            "end_to_end": summary, "exact": first["exact"],
            "per_layer": layers, "attempted": first["attempted"],
        }
    drift = spread(calibration)
    doc["host.calibration_spread"] = drift
    doc["noisy"] = drift > NOISY_SPREAD
    doc["problems"] = problems
    print(f"\nhost.calibration_spread {drift:.3f} over {len(calibration)} "
          f"samples" + ("  ** noisy: rerun before reading host metrics **"
                        if doc["noisy"] else ""))
    for p in problems:
        print(f"FAILED: {p}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    print("all checks passed" if not problems else f"{len(problems)} failed")
    return 1 if problems else 0


def _children() -> List[int]:
    """Pids whose parent is this process (zombies included)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    # "pid (comm) state ppid ...": comm may hold spaces.
                    ppid = int(f.read().rpartition(")")[2].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == me:
                found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``run_fleet``'s spawn pool joins its workers, but ``multiprocessing``
    also starts a resource tracker that lives until this process closes
    its pipe, i.e. past our exit: where pid 1 reaps nothing it stays
    behind as a zombie. So the tracker is stopped and waited for here,
    and whatever else is still a child (there should be nothing) is
    killed and reaped.
    """
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_mod, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        try:
            tracker._stop()         # closes the pipe, waitpid()s the tracker
        except (OSError, AttributeError):
            pass
    for _ in range(5):
        pids = _children()
        if not pids:
            break
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
            try:
                os.waitpid(pid, 0)
            except OSError:
                pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="op counts scale with it; 5 is the documented size")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="given: one measured run (0 end-to-end, 1 per-layer)")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--quick", action="store_true",
                    help="smoke-sized report in one interpreter")
    ap.add_argument("--out", help="write the report as JSON")
    ap.add_argument("--trace-out", help="write Chrome trace-event JSON")
    args = ap.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.trace is None:
        return report(args, spec)
    if args.workload is None:
        ap.error("--trace needs --workload")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), trace_out=args.trace_out)
    emit(result, spec)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
