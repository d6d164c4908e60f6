"""Golden pins for the vectorized reshuffle write-back path.

The reshuffle hot path (``_refill_bucket`` / ``_early_reshuffle`` /
``_evict_path``) batches whole-bucket sink calls and takes RNG parity
draws instead of per-slot loops; these constants are the simulator's
outputs from *before* that rewrite, recorded at a fixed seed. Any
drift here means the fast path is no longer behaviour-preserving --
the optimization's contract is bit-identical statistics, so a change
in these numbers is a bug (or a deliberate protocol change that must
update the pins and the committed perf baselines together).

``exec_ns`` is included on purpose: it is a pure function of the DRAM
call sequence, so it pins the *order* of sink traffic, which the
counter fields alone would not.
"""

import pytest

from repro.analysis.deadblocks import LifetimeTracker
from repro.core import schemes as schemes_mod
from repro.core.security import GuessingAttacker
from repro.oram.recovery import RobustnessConfig
from repro.sim.engine import SimConfig, Simulation
from repro.sim.runner import make_trace

LEVELS = 9
REQUESTS = 400
SEED = 3

# scheme -> (reshuffles_by_level, stash_peak, dead_blocks,
#            dram_reads, dram_writes, exec_ns)
GOLDEN = {
    "ring": (
        [80, 95, 100, 96, 97, 94, 93, 83, 80],
        30, 861, 6682, 7811, 145383.7544014085,
    ),
    "baseline": (
        [80, 94, 104, 98, 96, 93, 92, 84, 80],
        32, 852, 6670, 6005, 131498.01056338026,
    ),
    "ab": (
        [80, 94, 105, 109, 107, 111, 117, 112, 98],
        56, 397, 7270, 5801, 134647.2535211268,
    ),
    "ns": (
        [80, 94, 104, 96, 101, 92, 90, 100, 85],
        40, 785, 6808, 5842, 126045.25088028169,
    ),
}


@pytest.mark.parametrize("scheme", sorted(GOLDEN))
def test_sim_stats_match_prevectorization_goldens(scheme):
    cfg = schemes_mod.by_name(scheme, LEVELS)
    trace = make_trace("spec", "mcf", cfg.n_real_blocks, REQUESTS, seed=SEED)
    result = Simulation(
        cfg, trace, SimConfig(seed=SEED, warmup_requests=0)
    ).run()
    reshuffles, stash_peak, dead, reads, writes, exec_ns = GOLDEN[scheme]
    assert [int(x) for x in result.reshuffles_by_level] == reshuffles
    assert int(result.stash_peak) == stash_peak
    assert int(result.dead_blocks) == dead
    assert int(result.dram_reads) == reads
    assert int(result.dram_writes) == writes
    assert result.exec_ns == pytest.approx(exec_ns, rel=0, abs=1e-6)


def test_ab_with_telemetry_matches_goldens(tmp_path):
    """Telemetry attached to the golden AB cell changes nothing.

    The TracingSink forwards the identical request stream to the DRAM
    model and the periodic snapshots only read state, so every golden
    pin must hold bit-for-bit with tracing on -- and the exported trace
    must be schema-valid with spans for all three operation classes.
    """
    import importlib.util
    import json
    import os

    from repro.telemetry import Telemetry, load_stream

    cfg = schemes_mod.by_name("ab", LEVELS)
    trace = make_trace("spec", "mcf", cfg.n_real_blocks, REQUESTS, seed=SEED)
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "trace.jsonl"
    telemetry = Telemetry(trace_path=str(trace_path),
                          metrics_path=str(metrics_path), metrics_every=100)
    result = Simulation(
        cfg, trace, SimConfig(seed=SEED, warmup_requests=0),
        telemetry=telemetry,
    ).run()
    telemetry.close()

    reshuffles, stash_peak, dead, reads, writes, exec_ns = GOLDEN["ab"]
    assert [int(x) for x in result.reshuffles_by_level] == reshuffles
    assert int(result.stash_peak) == stash_peak
    assert int(result.dead_blocks) == dead
    assert int(result.dram_reads) == reads
    assert int(result.dram_writes) == writes
    assert result.exec_ns == pytest.approx(exec_ns, rel=0, abs=1e-6)

    # The exported trace passes the same schema gate CI runs.
    tools = os.path.join(os.path.dirname(__file__), "..", "tools",
                         "check_trace.py")
    spec = importlib.util.spec_from_file_location("check_trace", tools)
    check_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_trace)
    with open(trace_path) as f:
        doc = json.load(f)
    errors = check_trace.validate_trace(
        doc, require_kinds=("readPath", "evictPath", "earlyReshuffle"))
    assert errors == []

    # The JSONL stream carries the protocol-state snapshots.
    stream = load_stream(str(metrics_path))
    assert len(stream["snapshots"]) == REQUESTS // 100 + 1
    last = stream["snapshots"][-1]
    assert last["stash_peak"] == stash_peak
    assert last["reshuffles_total"] == sum(reshuffles)
    assert last["deadq_depth"]


def test_ab_with_datastore_and_observers_matches_goldens():
    """The AB cell with every optional layer attached, pinned.

    The bare-scheme goldens above run without a datastore or observers,
    which lets the hot path skip payload capture, per-slot observer
    events and integrity bookkeeping entirely. This cell turns all of
    it on -- sealed datastore with the integrity tree, a
    LifetimeTracker and a GuessingAttacker -- so the *general* refill
    path (extension acquire/write_remote, remote consumes, observer
    fan-out) is exercised end to end. The observer and datastore
    counters are pinned alongside the simulator stats: batching a
    reshuffle must not change how many events each layer sees, only
    how they are delivered.
    """
    cfg = schemes_mod.by_name("ab", LEVELS)
    trace = make_trace("spec", "mcf", cfg.n_real_blocks, REQUESTS, seed=SEED)
    tracker = LifetimeTracker(LEVELS)
    attacker = GuessingAttacker(LEVELS, seed=SEED)
    sim = Simulation(cfg, trace, SimConfig(
        seed=SEED, warmup_requests=0,
        robustness=RobustnessConfig(integrity=True),
        observers=[tracker, attacker],
    ))
    result = sim.run()

    # Simulator stats: identical to the bare AB golden -- the datastore
    # and observers are software layers off the DRAM timing path, so
    # attaching them must not move exec_ns by a single ULP.
    assert result.exec_ns == pytest.approx(
        134647.2535211268, rel=0, abs=1e-6)
    assert int(result.stash_peak) == 56
    assert int(result.dead_blocks) == 397

    # Observer counters: one event per reclaimed slot, batched or not.
    assert int(tracker.count.sum()) == 3477
    assert float(tracker.total.sum()) == 93810.0
    assert len(tracker._death_time) == 397
    assert attacker.guesses == 400
    assert attacker.correct == 36
    assert attacker.guess_histogram.tolist() == [
        43, 46, 46, 41, 46, 49, 44, 46, 39]

    # Datastore + integrity tree: seal_many must seal exactly the
    # slots the per-slot path sealed.
    rb = result.robustness
    assert rb["datastore"]["seals"] == 7449
    assert rb["datastore"]["opens"] == 2916
    assert rb["integrity"]["updates"] == 7449
    assert rb["integrity"]["verifications"] == 3316

    sim.oram.check_invariants()
