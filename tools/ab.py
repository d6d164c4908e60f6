#!/usr/bin/env python
"""A/B one change on the end-to-end benchmark: alternating pairs.

    python tools/ab.py --base REV --workload W [--pairs 10] [--seed 1] [--record]

(``make ab BASE=<rev> W=<workload> N=<pairs> [SEED=<first seed>]
[RECORD=1]``.)

It exports BASE and the working tree's tracked and unignored files
side by side under ``generated/ab/``, then runs
``benchmarks/e2e/run.py --workload W --seed N`` (at the benchmark's own
run length) in a fresh interpreter per run, alternating the two trees (the first in a pair alternates
too) on seeds ``SEED .. SEED + pairs - 1``. It prints each host
metric's median and quartiles per side, the change in the medians,
whether that change clears the base's interquartile range, and the
pairs the change won, plus the CPU seconds each side's runs used
(work, where wall time also counts contention).

It exits 1 at the first pair whose two runs disagree on ``correct``,
on any of the six simulated metrics, or on ``ok_share``: a host-only
change must leave those byte-equal per (workload, seed). A tree is
exported with ``git archive``, so nothing is checked out in place and
no worktree is registered.

``--record`` appends the finished comparison to the committed
``BENCH_e2e.json`` at the repo root, the host-time trajectory: both
revisions (the change as ``HEAD``'s short hash, ``-dirty`` when the
working tree differs from it), the workload and seeds, each host
metric's median, quartiles and wins, the median CPU seconds per side
and a host line (Python version, ``os.cpu_count()``, platform). A run
that fails records nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "generated" / "ab"
#: The committed trajectory ``--record`` appends to.
TRAJECTORY = ROOT / "BENCH_e2e.json"
#: Measured on the host; everything else a run reports must be equal.
HOST_METRICS = ("setup_s", "ops_per_s", "peak_rss_mb")


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True,
    ).stdout


def export(rev: Optional[str], name: str) -> Path:
    """``rev``'s tree (or, for ``rev=None``, the working tree's
    tracked and unignored files) at ``generated/ab/<name>``."""
    dest = OUT / name
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if rev is not None:
        archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {rev} failed")
        return dest
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").split(b"\0")
    for raw in filter(None, listed):
        src = ROOT / raw.decode()
        if src.is_file():
            (dest / raw.decode()).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / raw.decode())
    return dest


def run_once(
    tree: Path, workload: str, seed: int,
) -> Tuple[Dict[str, Any], float]:
    """One measured run in ``tree``: its detail record and CPU seconds."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime - before.ru_utime
             + after.ru_stime - before.ru_stime)
    for line in proc.stdout.splitlines():
        if line.startswith("#detail "):
            return json.loads(line[len("#detail "):]), cpu_s
    sys.exit(f"ab: {tree.name} {workload} seed {seed} printed no result "
             f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")


def exact(result: Dict[str, Any]) -> Dict[str, Any]:
    """What must be byte-equal across the two trees for one seed."""
    return {
        "correct": result["correct"],
        "exact": result["exact"],
        "ok_share": result["metrics"]["ok_share"],
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def change_rev() -> str:
    """``HEAD``'s short hash, ``-dirty`` when the exported working tree
    (tracked and unignored files) differs from it."""
    head = git("rev-parse", "--short", "HEAD").decode().strip()
    dirty = git("status", "--porcelain", "--untracked-files=all").strip()
    return f"{head}-dirty" if dirty else head


def summarize(
    runs: Dict[str, List[Dict[str, Any]]], better: Dict[str, str],
) -> Dict[str, Dict[str, Any]]:
    """Per host metric: each side's median and quartiles, the change in
    the medians, whether it clears the base's IQR, and the change's
    wins over the pairs."""
    out = {}
    for metric in HOST_METRICS:
        sign = 1 if better[metric] == "higher" else -1
        sides = {side: [r["metrics"][metric] for r in runs[side]]
                 for side in ("base", "change")}
        (b1, b2, b3), (c1, c2, c3) = (quartiles(sides["base"]),
                                      quartiles(sides["change"]))
        out[metric] = {
            "better": better[metric],
            "base": {"median": b2, "q1": b1, "q3": b3},
            "change": {"median": c2, "q1": c1, "q3": c3},
            "delta": (c2 - b2) / b2,
            "clears_iqr": sign * (c2 - b2) > b3 - b1,
            "wins": sum(sign * (c - b) > 0
                        for b, c in zip(sides["base"], sides["change"])),
        }
    return out


def record(entry: Dict[str, Any]) -> None:
    """Append ``entry`` to the trajectory file (a JSON list)."""
    entries = (json.loads(TRAJECTORY.read_text())
               if TRAJECTORY.exists() else [])
    entries.append(entry)
    TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--record", action="store_true",
                    help=f"append the result to {TRAJECTORY.name}")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    base_sha = git("rev-parse", "--short", args.base).decode().strip()
    trees = {"base": export(args.base, "base"),
             "change": export(None, "change")}
    print(f"# ab {args.workload}: base {base_sha} vs working tree, "
          f"{args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
    cpu: Dict[str, List[float]] = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result, cpu_s = run_once(trees[side], args.workload, seed)
            runs[side].append(result)
            cpu[side].append(cpu_s)
        a, b = runs["base"][-1], runs["change"][-1]
        print(f"  seed {seed}: " + "  ".join(
            f"{m} {a['metrics'][m]:.4g} -> {b['metrics'][m]:.4g}"
            for m in HOST_METRICS
        ), flush=True)
        if exact(a) != exact(b):
            print(f"ab: FAIL seed {seed}: simulated metrics or correctness "
                  f"differ:\n  base   {exact(a)}\n  change {exact(b)}")
            return 1
        if not a["correct"]:
            print(f"ab: FAIL seed {seed}: both trees fail their checks: "
                  f"{a['findings']}")
            return 1

    summary = summarize(runs, better)
    print(f"{'metric':<12} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'>IQR':>5} wins")
    for metric, m in summary.items():
        base, change = (
            "{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**m[side])
            for side in ("base", "change")
        )
        print(f"{metric:<12} {base:>30} {change:>30} {m['delta']:>+8.1%} "
              f"{'yes' if m['clears_iqr'] else 'no':>5} "
              f"{m['wins']}/{args.pairs}")
    cpu_s = {side: statistics.median(cpu[side]) for side in cpu}
    print(f"{'cpu_s':<12} {cpu_s['base']:>30.3f} {cpu_s['change']:>30.3f}")
    print("ab: simulated metrics and correctness byte-equal on every pair")
    if args.record:
        record({
            "base": base_sha, "change": change_rev(),
            "workload": args.workload, "pairs": args.pairs,
            "seeds": [args.seed, args.seed + args.pairs - 1],
            "metrics": summary, "cpu_s": cpu_s,
            "host": {"python": platform.python_version(),
                     "cpu_count": os.cpu_count(),
                     "platform": platform.platform()},
        })
        print(f"ab: recorded in {TRAJECTORY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
