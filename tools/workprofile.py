#!/usr/bin/env python
"""Calls per op of every named ``src/repro`` function, per workload.

    python tools/workprofile.py [--out BENCH_work.json] [--check]

(``make workprofile``.) It builds ``sim-ring``, ``sim-ab``,
``serve-read``, ``serve-write``, ``serve-sealed`` and ``serve-chaos``
from ``benchmarks/e2e/workloads.py`` at one fixed small size and seed,
and runs each workload's timed phase with a clock whose ``timed`` runs
its callable under ``cProfile``: set-up, warm-up and the oracle's
checks are not counted. For every function of a ``repro`` module the
profile saw, it writes the calls per timed op, and sums them per
layer: the module's ``per_layer`` name of ``BENCHMARK.json``
(:data:`LAYERS`), plus ``faults`` for ``repro.faults``.

Only named functions count (``<listcomp>``, ``<genexpr>``, ``<lambda>``
are skipped): Python 3.12 inlines comprehensions, and the file must
read the same on every Python CI runs. The counts are a pure function
of the code, so the committed root ``BENCH_work.json`` changes only
when the work a workload does changes; ``--check`` exits 1 when a
fresh profile differs from it (``tests/test_workprofile.py``).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path
from typing import Any, Callable, Dict

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"
OUT = ROOT / "BENCH_work.json"

WORKLOADS = ("sim-ring", "sim-ab", "serve-read", "serve-write",
             "serve-sealed", "serve-chaos")
SEED = 1
#: Share of each workload's documented size (``--seconds 0.25``).
SCALE = 0.05

#: Module (longest prefix wins) -> the ``per_layer`` name it counts in.
LAYERS = {
    "repro.app": "kvstore",
    "repro.core.ab_oram": "remote",
    "repro.core.dead_queue": "remote",
    "repro.core.remote": "remote",
    "repro.core.pipeline": "mem",
    "repro.crypto.engine": "crypto.engine",
    "repro.crypto.integrity": "crypto.integrity",
    "repro.faults": "faults",
    "repro.mem": "mem",
    "repro.oram": "ring",
    "repro.oram.datastore": "datastore",
    "repro.oram.recovery": "recovery",
    "repro.oram.stats": "mem",
    "repro.serve": "replay",
    "repro.serve.loadgen": "loadgen",
    "repro.serve.resilience": "resilience",
    "repro.serve.scheduler": "scheduler",
    "repro.sim": "sim",
    "repro.telemetry": "telemetry",
    "repro.traces": "traces",
}


def layer_of(module: str) -> str:
    """The layer of ``module``: its longest prefix in :data:`LAYERS`."""
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        if ".".join(parts[:n]) in LAYERS:
            return LAYERS[".".join(parts[:n])]
    raise KeyError(module)


class ProfiledClock:
    """The e2e clock's ``timed``, timing nothing: it runs ``fn`` under
    one shared profiler."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    def timed(self, fn: Callable[[], Any]) -> Any:
        from hostclock import Timed

        self.profile.enable()
        try:
            value = fn()
        finally:
            self.profile.disable()
        return Timed(value, 0.0, 0.0)


def profile(name: str) -> Dict[str, Any]:
    """One workload's ops and calls per op, by function and by layer."""
    import workloads

    workload = workloads.make(name, SEED, SCALE)
    workload.setup()
    clock = ProfiledClock()
    measured = workload.run(clock)
    if measured.findings:
        raise RuntimeError(f"{name}: {measured.findings}")
    calls: Dict[str, int] = {}
    src = str(ROOT / "src") + "/"
    for (path, _, func), (_, n, *_) in pstats.Stats(clock.profile).stats.items():
        if not path.startswith(src) or func.startswith("<"):
            continue
        module = path[len(src):-len(".py")].replace("/", ".")
        module = module[:-len(".__init__")] if module.endswith(".__init__") else module
        key = f"{module}.{func}"
        calls[key] = calls.get(key, 0) + n
    ops = measured.ops
    layers: Dict[str, float] = {}
    for key, n in calls.items():
        layer = layer_of(key.rsplit(".", 1)[0])
        layers[layer] = layers.get(layer, 0) + n
    return {
        "ops": ops,
        "layers": {k: round(v / ops, 3) for k, v in sorted(layers.items())},
        "calls_per_op": {k: round(v / ops, 3) for k, v in sorted(calls.items())},
    }


def main(argv: Any = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=OUT)
    ap.add_argument("--check", action="store_true",
                    help=f"compare with {OUT.name} instead of writing")
    args = ap.parse_args(argv)
    for path in (ROOT / "src", E2E):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    doc = {
        "about": "calls per timed op of each named src/repro function "
                 "(tools/workprofile.py)",
        "seed": SEED,
        "scale": SCALE,
        "workloads": {name: profile(name) for name in WORKLOADS},
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.check:
        if OUT.read_text() != text:
            print(f"{OUT.name} is stale: run `make workprofile`",
                  file=sys.stderr)
            return 1
        return 0
    args.out.write_text(text)
    print(f"wrote {args.out}")
    for name, w in doc["workloads"].items():
        print(f"{name:13s} " + "  ".join(
            f"{k} {v:g}" for k, v in w["layers"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
