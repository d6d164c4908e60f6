#!/usr/bin/env python
"""Pin the ring controller's *state*, not only its reports.

The report goldens (``tests/test_report_goldens.py``) compare simulated
DRAM ns and protocol counters; two slots swapped inside a bucket, or an
RNG stream shifted by one draw that happens to cost the same DRAM ns,
pass them. This tool runs a fixed matrix of small configurations and
prints one SHA-256 per configuration over everything a refactor of the
controller must leave alone: the ``SimResult`` (or, for the dict-model
runs, every answer), the controller's RNG state, the local columns of
``slots`` / ``status`` / ``generation``, ``count`` / ``sustain``, the
sorted stash, ``ext.stats()``, observer state, the Merkle root and the
recovery counters.

The matrix: twenty-one simulations -- {ring, baseline, ir, ns, dr, ab}
plain, then subsets with three observers attached, on the sealed data
path, sealed with faults armed, at pipeline depth 4, ``ab`` armed
with its quarantine rebuilds deferred to one final
``flush_recovery()``, and ``ab`` at L10 over 6,000 requests -- and
seven dict-model runs (a ``store_data``
controller checked against a dict) on the shapes the simulations do
not reach: ``dr-perf``, DeadQ capacity 2 and 3, ``evict_rate`` 3,
background eviction, a recursive position map behind a PLB small
enough to miss.

Only ``[:, :cfg.z_max]`` of the per-slot arrays is hashed, so the tool
runs unmodified on either side of a change to what lies past those
columns; ``tests/goldens/controller_state.json`` holds its output and
``tests/test_controller_goldens.py`` requires the tree to reproduce it.

Usage: ``PYTHONPATH=src python tools/controller_fingerprint.py
[--json] [--only NAME ...]`` (or ``make fingerprint``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.deadblocks import LifetimeTracker
from repro.core import schemes
from repro.core.ab_oram import build_oram
from repro.core.security import GuessingAttacker, RemoteMappingCollector
from repro.faults.plan import FaultPlan
from repro.oram.plb import RecursivePosMap
from repro.oram.recovery import RobustnessConfig
from repro.oram.ring import RingOram
from repro.oram.stats import OpKind
from repro.sim.engine import SimConfig, Simulation
from repro.sim.runner import make_trace

SIM_LEVELS = 9
SIM_REQUESTS = 400
MODEL_ACCESSES = 600
# ``sim/ab/horizon``: long enough that the stash holds 100+ blocks and
# the write-back picks of one path compete for room (peak 138, 1,200
# evictPaths), which the L9 x 400 runs (peak 66) rarely reach.
HORIZON_LEVELS = 10
HORIZON_REQUESTS = 6000

_FAULTS = {"bit_flip": 0.01, "replay": 0.01, "unavailable": 0.02}


def _canon(value: Any) -> Any:
    """``value`` with arrays and non-string keys made JSON-stable."""
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), value.tobytes().hex()]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return value


def _observer_state(obs: Any) -> Dict[str, Any]:
    state = {
        k: v for k, v in vars(obs).items()
        if not isinstance(v, np.random.Generator)
    }
    if isinstance(obs, LifetimeTracker):
        state["_death_time"] = sorted(obs._death_time.items())
    if isinstance(obs, GuessingAttacker):
        state["rng"] = obs.rng.bit_generator.state
    if isinstance(obs, RemoteMappingCollector):
        state["_band"] = sorted(obs._band) if obs._band is not None else None
    return {type(obs).__name__: state}


def controller_state(oram: RingOram) -> Dict[str, Any]:
    """Everything of one controller the fingerprint covers."""
    store = oram.store
    z = oram.cfg.z_max
    integrity = getattr(oram.datastore, "integrity", None)
    return {
        "rng": oram.rng.bit_generator.state,
        "slots": store.slots[:, :z],
        "status": store.status[:, :z],
        "generation": store.generation[:, :z],
        "count": store.count,
        "sustain": store.sustain,
        "stash": sorted(oram.stash.blocks()),
        "ext": None if oram.ext is None else oram.ext.stats(),
        "observers": [_observer_state(obs) for obs in oram.observers],
        "merkle_root": None if integrity is None else integrity.root.hex(),
        "robust": oram.robust.to_dict(),
    }


def _digest(payload: Dict[str, Any]) -> str:
    text = json.dumps(_canon(payload), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ runs

def _observers(cfg) -> List[Any]:
    return [
        LifetimeTracker(cfg.levels),
        GuessingAttacker(cfg.levels, seed=3),
        RemoteMappingCollector(),
    ]


def _simulation(scheme: str, variant: str) -> Callable[[], Dict[str, Any]]:
    def run() -> Dict[str, Any]:
        if variant == "horizon":
            levels, requests = HORIZON_LEVELS, HORIZON_REQUESTS
        else:
            levels, requests = SIM_LEVELS, SIM_REQUESTS
        cfg = schemes.by_name(scheme, levels)
        trace = make_trace("spec", "mcf", cfg.n_real_blocks, requests, seed=2)
        sim = SimConfig(seed=4, check_invariants=True)
        if variant == "observers":
            sim.observers = _observers(cfg)
        elif variant == "sealed":
            sim.robustness = RobustnessConfig(integrity=True)
        elif variant in ("armed", "deferred"):
            sim.robustness = RobustnessConfig(integrity=True)
            sim.fault_plan = FaultPlan(seed=5, max_outage_ops=2,
                                       rates=_FAULTS)
        elif variant == "depth4":
            sim.pipeline_depth = 4
        simulation = Simulation(cfg, trace, sim)
        if variant == "deferred":
            # The serving layer's degraded mode: quarantines pile up
            # over the whole run and drain in the ``flush_recovery()``
            # that ``run`` ends with.
            simulation.oram.defer_rebuilds = True
        result = simulation.run()
        if variant == "deferred" and not result.ops_by_kind["recovery"]:
            raise AssertionError("the deferred run rebuilt no bucket")
        state = controller_state(simulation.oram)
        state["result"] = result.to_dict()
        return state
    return run


def _dict_model(
    cfg_factory: Callable[[], Any], recursive: bool = False
) -> Callable[[], Dict[str, Any]]:
    def run() -> Dict[str, Any]:
        cfg = cfg_factory()
        oram = build_oram(cfg, seed=6, store_data=True,
                          posmap_mode="recursive" if recursive else "onchip")
        if recursive:
            # A tree this small fits the default on-chip budget whole;
            # shrink it (and the PLB) so position-map fetches happen.
            oram.posmap_model = RecursivePosMap(
                cfg.n_real_blocks, plb_entries=4, fanout=4, onchip_entries=8)
        oram.warm_fill()
        rng = np.random.default_rng(7)
        shadow: Dict[int, int] = {}
        answers: List[Optional[int]] = []
        for i in range(MODEL_ACCESSES):
            block = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.4:
                shadow[block] = i
                oram.write(block, i)
            else:
                answer = oram.read(block)
                if answer != shadow.get(block):
                    raise AssertionError(
                        f"access {i}: block {block} read {answer!r}, "
                        f"the dict holds {shadow.get(block)!r}"
                    )
                answers.append(answer)
            if i % 50 == 49:
                oram.check_invariants()
        if recursive and not oram.sink.by_kind[OpKind.POSMAP].ops:
            raise AssertionError("the recursive run fetched no posmap block")
        state = controller_state(oram)
        state["answers"] = answers
        state["counters"] = [
            oram.online_accesses, oram.background_accesses, oram.evict_counter,
            oram.stash.peak_occupancy,
            oram.store.reshuffles_by_level.tolist(),
        ]
        return state
    return run


def matrix() -> Dict[str, Callable[[], Dict[str, Any]]]:
    """Configuration name -> a callable producing its hashed state."""
    runs: Dict[str, Callable[[], Dict[str, Any]]] = {}
    for variant, names in (
        ("plain", ("ring", "baseline", "ir", "ns", "dr", "ab")),
        ("observers", ("baseline", "dr", "ab")),
        ("sealed", ("ring", "ns", "dr", "ab")),
        ("armed", ("baseline", "dr", "ab")),
        ("depth4", ("ir", "dr", "ab")),
    ):
        for scheme in names:
            runs[f"sim/{scheme}/{variant}"] = _simulation(scheme, variant)
    runs["sim/ab/deferred"] = _simulation("ab", "deferred")
    runs["sim/ab/horizon"] = _simulation("ab", "horizon")
    runs["model/dr-perf"] = _dict_model(lambda: schemes.by_name("dr-perf", 8))
    runs["model/dr-deadq2"] = _dict_model(
        lambda: schemes.dr_scheme(7, deadq_capacity=2))
    runs["model/ab-deadq3"] = _dict_model(
        lambda: schemes.ab_scheme(7, deadq_capacity=3))
    runs["model/ab-deadq2"] = _dict_model(
        lambda: schemes.ab_scheme(8, deadq_capacity=2))
    runs["model/ab-evict3"] = _dict_model(
        lambda: dataclasses.replace(schemes.ab_scheme(8), evict_rate=3))
    runs["model/ab-background"] = _dict_model(
        lambda: dataclasses.replace(schemes.ab_scheme(8), stash_capacity=60,
                                    background_evict_threshold=12))
    runs["model/ab-recursive"] = _dict_model(
        lambda: schemes.ab_scheme(8), recursive=True)
    return runs


def fingerprints(only: Optional[Sequence[str]] = None) -> Dict[str, str]:
    runs = matrix()
    if only:
        unknown = sorted(set(only) - set(runs))
        if unknown:
            raise KeyError(f"unknown configuration(s): {unknown}")
        runs = {name: runs[name] for name in only}
    return {name: _digest(run()) for name, run in runs.items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only these configurations")
    parser.add_argument("--json", action="store_true",
                        help="print the golden file's JSON, not a table")
    args = parser.parse_args(argv)
    prints = fingerprints(args.only)
    if args.json:
        json.dump(prints, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        width = max(map(len, prints))
        for name, digest in prints.items():
            print(f"{name:<{width}}  {digest}")
        print(f"{len(prints)} configurations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
