"""Tests for the sharded fleet: partition map, routing, control plane.

Three contracts carry the sharding subsystem's correctness story:

1. **The partition map is a keyed PRF** (hypothesis): deterministic
   across instances, always in range, dense local ids, and balanced
   for both uniform and zipf-skewed key populations.
2. **The fleet is N serial shards** by construction: ``run_fleet``'s
   merged per-shard blocks are byte-identical to running each shard
   alone as a serial reference, and byte-identical at any ``--workers``
   width. The same holds for the partitioned trace simulator.
3. **Per-key FIFO survives routing** (hypothesis): against a
   plain-dict reference model replaying operations in arrival order,
   every get served from its shard's share (``shard_share`` +
   ``serve_slice``, the path the fleet serves on) returns the
   reference value no matter how admission cuts the stream.

And one layering contract: ``repro.core`` and ``repro.core.sharding``
load nothing from ``repro.serve`` (the fleet lives in
``repro.serve.fleet``; ``repro.core.sharding.fleet`` is a compatibility
import of the same objects).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import schemes as schemes_mod
from repro.core.sharding.control import (
    DEAD,
    DEGRADED,
    EVENT_KINDS,
    HEALTHY,
    REBUILDING,
    ControlPlane,
    ShardEvent,
    heartbeat_events,
)
from repro.core.sharding.partition import PartitionMap
from repro.core.sharding.sharded import (
    MIN_SHARD_LEVELS,
    levels_for_blocks,
    run_sharded_sim,
    split_trace,
)
from repro.faults.plan import FaultPlan
from repro.parallel.executor import derive_seed
from repro.serve import DELETE, GET, PUT, Request
from repro.serve.fleet import (
    FleetConfig,
    KillShardDrill,
    _fleet_shard_task,
    run_fleet,
    shard_requests,
    shard_share,
)
from repro.serve.loadgen import WorkloadConfig
from repro.serve.replay import serve_slice
from repro.serve.resilience import ResilienceConfig
from repro.sim.runner import make_trace

settings_kw = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def canon(obj):
    """Canonical JSON bytes -- the byte-identity comparator."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------- partition map

class TestPartitionMap:
    @given(
        key=st.binary(min_size=0, max_size=40),
        seed=st.integers(0, 2**31 - 1),
        shards=st.integers(1, 16),
    )
    @settings(**settings_kw)
    def test_prf_deterministic_across_instances(self, key, seed, shards):
        a = PartitionMap(shards, seed=seed)
        b = PartitionMap(shards, seed=seed)
        got = a.shard_of_bytes(key)
        assert got == b.shard_of_bytes(key)
        assert 0 <= got < shards

    @given(
        block=st.integers(0, 2**24),
        seed=st.integers(0, 1000),
        shards=st.integers(1, 8),
    )
    @settings(**settings_kw)
    def test_block_key_bridge(self, block, seed, shards):
        # Block routing is the byte PRF applied to the canonical
        # b"b|<id>" key -- one routing function, two entry points.
        pmap = PartitionMap(shards, seed=seed)
        assert pmap.shard_of_block(block) == pmap.shard_of_bytes(
            b"b|%d" % block
        )

    @given(
        n=st.integers(0, 2000),
        seed=st.integers(0, 50),
        shards=st.integers(1, 6),
    )
    @settings(**settings_kw)
    def test_split_blocks_dense_local_ids(self, n, seed, shards):
        pmap = PartitionMap(shards, seed=seed)
        shard_ids, local_ids = pmap.split_blocks(n)
        assert len(shard_ids) == len(local_ids) == n
        for s in range(shards):
            mine = local_ids[shard_ids == s]
            # Dense ranks 0..count-1 in global block order.
            assert list(mine) == list(range(len(mine)))
        for block in range(min(n, 64)):
            assert shard_ids[block] == pmap.shard_of_block(block)

    def test_balance_uniform_blocks(self):
        pmap = PartitionMap(4, seed=7)
        shard_ids, _ = pmap.split_blocks(4096)
        counts = np.bincount(shard_ids, minlength=4)
        assert counts.max() / (4096 / 4) < 1.25

    def test_balance_zipf_weighted_keys(self):
        # The routed *load* stays near the even split under the skew
        # the capacity workloads use: the hot shard's share of zipf
        # weight is the even share plus at most one hot key's mass.
        s, n_keys, shards = 0.9, 2000, 4
        pmap = PartitionMap(shards, seed=3)
        ranks = np.arange(1, n_keys + 1, dtype=float)
        weights = ranks ** -s
        weights /= weights.sum()
        share = np.zeros(shards)
        for i, w in enumerate(weights):
            share[pmap.shard_of_bytes(b"key|%d" % i)] += w
        assert share.max() < 0.40

    def test_split_keys_preserves_order(self):
        pmap = PartitionMap(3, seed=1)
        keys = [b"k%d" % i for i in range(60)]
        groups = pmap.split_keys(keys)
        assert sum(len(g) for g in groups) == len(keys)
        for shard, group in enumerate(groups):
            assert group == [
                k for k in keys if pmap.shard_of_bytes(k) == shard
            ]
        occ = pmap.occupancy(keys)
        assert list(occ) == [len(g) for g in groups]

    def test_single_shard_routes_everything_to_zero(self):
        pmap = PartitionMap(1, seed=9)
        assert {pmap.shard_of_block(b) for b in range(128)} == {0}

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            PartitionMap(0)
        with pytest.raises(ValueError):
            PartitionMap(2).split_blocks(-1)

    def test_to_dict_names_the_prf(self):
        d = PartitionMap(4, seed=5).to_dict()
        assert d == {
            "kind": "keyed-prf", "hash": "sha256",
            "num_shards": 4, "seed": 5,
        }


class TestLevelsForBlocks:
    def test_capacity_is_satisfied_and_minimal(self):
        for n in (1, 100, 637, 5000, 2**16):
            levels = levels_for_blocks("ab", n)
            assert schemes_mod.by_name("ab", levels).n_real_blocks >= n
            if levels > MIN_SHARD_LEVELS:
                assert (
                    schemes_mod.by_name("ab", levels - 1).n_real_blocks < n
                )

    def test_floor_is_min_shard_levels(self):
        assert levels_for_blocks("ab", 1) == MIN_SHARD_LEVELS

    def test_overflow_raises(self):
        with pytest.raises(ValueError):
            levels_for_blocks("ab", 10**12, max_levels=10)


# --------------------------------------------------- sharded simulator

class TestShardedSim:
    def _trace(self, n_blocks, n_requests=240):
        return make_trace("spec", "mcf", n_blocks, n_requests, seed=4)

    def test_split_trace_partitions_and_remaps(self):
        n_blocks = schemes_mod.by_name("ab", 8).n_real_blocks
        trace = self._trace(n_blocks)
        pmap = PartitionMap(3, seed=4)
        subs = split_trace(trace, pmap, n_blocks)
        assert len(subs) == 3
        assert sum(len(s.requests) for s in subs) == len(trace.requests)
        shard_ids, local_ids = pmap.split_blocks(n_blocks)
        counts = np.bincount(shard_ids, minlength=3)
        for i, sub in enumerate(subs):
            assert sub.name == f"{trace.name}@s{i}"
            assert all(0 <= r.block < counts[i] for r in sub.requests)
        # Order within a shard is the program order (stable partition).
        walk = [[] for _ in range(3)]
        for req in trace.requests:
            walk[shard_ids[req.block]].append(
                (int(local_ids[req.block]), req.write)
            )
        for i, sub in enumerate(subs):
            assert [(r.block, r.write) for r in sub.requests] == walk[i]

    def test_merge_is_max_makespan_and_summed_requests(self):
        n_blocks = schemes_mod.by_name("ab", 8).n_real_blocks
        trace = self._trace(n_blocks)
        out = run_sharded_sim("ab", trace, n_blocks, 2, seed=4)
        assert sum(out.shard_requests) == len(trace.requests)
        assert out.exec_ns == max(r.exec_ns for r in out.per_shard)
        merged = out.merged_sim_block()
        assert merged["exec_ns"] == out.exec_ns
        # The merged block carries exactly the serial sim fields.
        from repro.perf.schema import PERF
        assert set(merged) == set(PERF.cell["sim"])

    def test_run_twice_is_byte_identical(self):
        n_blocks = schemes_mod.by_name("ab", 8).n_real_blocks
        trace = self._trace(n_blocks, n_requests=160)
        a = run_sharded_sim("ab", trace, n_blocks, 2, seed=4)
        b = run_sharded_sim("ab", trace, n_blocks, 2, seed=4)
        assert canon(a.merged_sim_block()) == canon(b.merged_sim_block())

    def test_workers_do_not_change_the_merge(self):
        n_blocks = schemes_mod.by_name("ab", 8).n_real_blocks
        trace = self._trace(n_blocks, n_requests=160)
        serial = run_sharded_sim("ab", trace, n_blocks, 2, seed=4)
        fanned = run_sharded_sim(
            "ab", trace, n_blocks, 2, seed=4, workers=2
        )
        assert canon(serial.merged_sim_block()) == canon(
            fanned.merged_sim_block()
        )

    def test_invalid_shards_raise(self):
        trace = self._trace(100, n_requests=10)
        with pytest.raises(ValueError):
            run_sharded_sim("ab", trace, 100, 0)


# ------------------------------------------------------- fleet serving

def tiny_workload(n_requests=150, stored_keys=64):
    return WorkloadConfig(
        name="tiny",
        n_requests=n_requests,
        n_keys=2000,
        stored_keys=stored_keys,
        arrival="poisson",
        rate_rps=1e8,
        zipf_s=0.7,
        read_fraction=0.8,
        value_bytes=32,
        expect_dedup=False,
    )


def tiny_fleet(**overrides):
    kwargs = dict(
        workload=tiny_workload(), levels=8, num_shards=3, seed=5,
    )
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


class TestFleetVsSerial:
    def test_fleet_equals_independent_serial_shards(self):
        # The headline identity: the merged fleet blocks are
        # byte-identical to each shard run alone as a serial reference.
        cfg = tiny_fleet()
        doc = run_fleet(cfg)
        assert doc["num_shards"] == 3
        worker_cfg = replace(cfg, progress=None, workers=1)
        for shard in range(cfg.num_shards):
            ref = _fleet_shard_task((worker_cfg, shard))
            assert canon(doc["shards"][shard]) == canon(ref["cell"])

    def test_shard_requests_cover_the_workload(self):
        cfg = tiny_fleet()
        wl = cfg.workload
        total_items = total_reqs = 0
        for shard in range(cfg.num_shards):
            items, reqs = shard_requests(cfg, shard)
            total_items += len(items)
            total_reqs += len(reqs)
            # Routing agrees with the fleet's partition map.
            pmap = PartitionMap(cfg.num_shards, seed=cfg.seed)
            assert all(
                pmap.shard_of_bytes(k) == shard for k, _ in items
            )
            assert all(
                pmap.shard_of_bytes(r.key) == shard for r in reqs
            )
        assert total_items == wl.stored_keys
        assert total_reqs == wl.n_requests

    def test_faultless_fleet_serves_everything(self):
        doc = run_fleet(tiny_fleet())
        fleet = doc["fleet"]
        assert fleet["availability"] == 1.0
        assert fleet["completions"] == fleet["requests"] == 150
        assert fleet["makespan_ns"] == max(
            s["sim"]["sim_ns"] for s in doc["shards"]
        )
        assert doc["control"]["all_healthy"] is True

    def test_errored_shard_counts_against_availability(self, monkeypatch):
        # One definition of availability: answered over *attempted*. A
        # shard whose task raises answered nothing, but its requests
        # were still asked -- they stay in the denominator.
        import repro.serve.fleet as fleet_mod
        cfg = tiny_fleet()
        dead_seed = derive_seed(cfg.seed, "shard:1")
        real = fleet_mod.serve_slice

        def flaky(items, requests, **kwargs):
            if kwargs["seed"] == dead_seed:
                raise RuntimeError("shard fell over")
            return real(items, requests, **kwargs)

        monkeypatch.setattr(fleet_mod, "serve_slice", flaky)
        doc = run_fleet(cfg)
        assert "error" in doc["shards"][1]
        lost = len(shard_requests(cfg, 1)[1])
        fleet = doc["fleet"]
        assert lost > 0 and fleet["completions"] == 150 - lost
        assert fleet["availability"] == (150 - lost) / 150 < 1.0
        # An errored shard emitted no events; the control plane still
        # names it, registered and never healthy.
        assert doc["control"]["all_healthy"] is False
        assert [(s["shard"], s["state"]) for s in doc["control"]["shards"]] \
            == [(0, HEALTHY), (1, "registered"), (2, HEALTHY)]
        # A shard that was asked nothing failed nothing.
        monkeypatch.undo()
        lone = run_fleet(
            replace(cfg, workload=replace(cfg.workload, n_requests=1))
        )
        idle = [s for s in lone["shards"] if s["sim"]["requests"] == 0]
        assert len(idle) == 2
        assert all(s["sim"]["availability"] == 1.0 for s in idle)
        assert lone["fleet"]["availability"] == 1.0

    def test_workers_do_not_change_the_fleet_block(self):
        serial = run_fleet(tiny_fleet())
        fanned = run_fleet(tiny_fleet(workers=2))
        for field in ("num_shards", "shards", "fleet", "control"):
            assert canon(serial[field]) == canon(fanned[field]), field

    def test_document_keys(self):
        doc = run_fleet(tiny_fleet())
        assert set(doc) == {"num_shards", "shards", "fleet", "control"}

    def test_drill_shard_validation(self):
        drill = KillShardDrill(
            shard=7,
            faults=FaultPlan(seed=1, rates={"bit_flip": 0.01}),
            resilience=ResilienceConfig(),
        )
        with pytest.raises(ValueError):
            run_fleet(tiny_fleet(drill=drill))


class TestKillShardDrill:
    def test_drill_degrades_detects_and_recovers(self):
        drill = KillShardDrill(
            shard=0,
            faults=FaultPlan(
                seed=202, rates={"bit_flip": 0.01, "replay": 0.008},
            ),
            resilience=ResilienceConfig(
                deadline_ns=4_000_000.0, queue_limit=128,
                retry_budget=8, backoff_base_ns=5_000.0,
                backoff_factor=1.6, journal_limit=96,
                repair_ns=30_000.0,
            ),
            min_availability=0.5,
        )
        cfg = tiny_fleet(
            workload=tiny_workload(n_requests=300, stored_keys=96),
            drill=drill,
        )
        doc = run_fleet(cfg)
        drilled = doc["shards"][0]["sim"]
        assert doc["shards"][0]["drill"] is True
        assert drilled["episodes"]["count"] >= 1
        det = drilled["detection"]
        assert det["tamper_injected"] >= 1
        assert det["tamper_detected"] == det["tamper_injected"]
        assert doc["fleet"]["availability"] >= drill.min_availability
        # The drilled shard's degraded episodes show up in the control
        # timeline and the fleet still ends all-healthy.
        shard0 = doc["control"]["shards"][0]
        states = {t["to"] for t in shard0["transitions"]}
        assert DEGRADED in states
        assert doc["control"]["all_healthy"] is True


# --------------------------------------------------- cross-shard FIFO

FIFO_KEYS = [b"k%d" % i for i in range(6)]

fifo_ops = st.one_of(
    st.tuples(st.just(GET), st.sampled_from(FIFO_KEYS), st.none()),
    st.tuples(st.just(PUT), st.sampled_from(FIFO_KEYS),
              st.binary(min_size=1, max_size=60)),
    st.tuples(st.just(DELETE), st.sampled_from(FIFO_KEYS), st.none()),
)


class TestRouterPerKeyFifo:
    """The router is the partition map: ``shard_share`` is its one
    rule and ``serve_slice`` on the derived seed is the shard, exactly
    as ``_fleet_shard_task`` composes them."""

    SEED = 0
    SHARDS = 3

    @given(
        raw=st.lists(fifo_ops, min_size=1, max_size=14),
        max_batch=st.sampled_from([1, 3, 32]),
    )
    @settings(**settings_kw)
    def test_matches_dict_reference_model(self, raw, max_batch):
        # A trailing GET per key reads back the final values:
        # serve_slice does not hand out its stack.
        ops = list(raw) + [(GET, key, None) for key in FIFO_KEYS]
        reqs = [
            Request(rid=i, op=op, key=key, value=value, arrival_ns=float(i))
            for i, (op, key, value) in enumerate(ops)
        ]
        items = [(FIFO_KEYS[0], b"seed0"), (FIFO_KEYS[1], b"seed1")]
        pmap = PartitionMap(self.SHARDS, seed=self.SEED)
        comps = {}
        for shard in range(self.SHARDS):
            share_items, share_reqs = shard_share(items, reqs, pmap, shard)
            served = serve_slice(
                share_items, share_reqs, scheme="ab", levels=8,
                seed=derive_seed(self.SEED, f"shard:{shard}"),
                max_batch=max_batch,
            )
            done = {c.rid: c for c in served.result.completions}
            assert set(done) == {r.rid for r in share_reqs}
            comps.update(done)
        assert set(comps) == {r.rid for r in reqs}

        model = dict(items)
        for req in reqs:
            comp = comps[req.rid]
            if req.op == GET:
                expect = model.get(req.key)
                assert comp.value == expect, (req, comp)
                assert comp.ok is (expect is not None)
            elif req.op == PUT:
                model[req.key] = req.value
                assert comp.ok
            else:
                existed = req.key in model
                model.pop(req.key, None)
                assert comp.ok is existed

    def test_route_is_a_stable_partition(self):
        pmap = PartitionMap(self.SHARDS, seed=self.SEED)
        window = [
            Request(rid=i, op=GET, key=b"q%d" % (i % 9), value=None,
                    arrival_ns=float(i))
            for i in range(30)
        ]
        items = [(b"q%d" % i, b"v%d" % i) for i in range(9)]
        shares = [
            shard_share(items, window, pmap, shard)
            for shard in range(self.SHARDS)
        ]
        # Disjoint and covering ...
        assert sorted(kv for its, _ in shares for kv in its) == sorted(items)
        assert sorted(r.rid for _, rs in shares for r in rs) == list(range(30))
        # ... and each share is the window's own requests (same
        # objects, same rids) in arrival order.
        for shard, (its, rs) in enumerate(shares):
            assert its == [
                kv for kv in items if pmap.shard_of_bytes(kv[0]) == shard
            ]
            want = [r for r in window if pmap.shard_of_bytes(r.key) == shard]
            assert len(rs) == len(want)
            assert all(a is b for a, b in zip(rs, want))


# ------------------------------------------------------------- layering

class TestLayering:
    def test_core_loads_nothing_from_serve(self):
        # A fresh interpreter: this process imported repro.serve long ago.
        code = (
            "import repro.core, repro.core.sharding, sys; "
            "assert not [m for m in sys.modules "
            "if m == 'repro.serve' or m.startswith('repro.serve.')]"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run(
            [sys.executable, "-c", code], check=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )

    def test_telemetry_loads_nothing_from_serve(self):
        # The trace builder, the request lanes and the fleet layout all
        # live in repro.telemetry; building a fleet document is what
        # once reached up into repro.serve, so build one first.
        code = (
            "import repro.telemetry as t, sys; "
            "t.fleet_trace_doc([t.ShardFragment(0)], seed=0); "
            "assert not [m for m in sys.modules "
            "if m == 'repro.serve' or m.startswith('repro.serve.')]"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run(
            [sys.executable, "-c", code], check=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )

    def test_shim_is_the_serve_fleet(self):
        import repro.core.sharding.fleet as shim
        import repro.serve.fleet as home
        assert shim.__all__
        for name in shim.__all__:
            assert getattr(shim, name) is getattr(home, name), name
        # The spawn pool pickles the shard task by its home module, so
        # a fleet started through the shim fans out like any other.
        serial = run_fleet(tiny_fleet())
        fanned = shim.run_fleet(tiny_fleet(workers=2))
        for field in ("num_shards", "shards", "fleet", "control"):
            assert canon(serial[field]) == canon(fanned[field]), field


# -------------------------------------------------------- control plane

class TestControlPlane:
    HB = 100.0

    def plane(self):
        return ControlPlane(self.HB, miss_after=3)

    def test_heartbeat_train_shape(self):
        events = heartbeat_events(2, 50.0, 420.0, self.HB)
        assert events[0].kind == "register"
        assert events[-1].kind == "complete"
        assert [e.kind for e in events[1:-1]] == ["heartbeat"] * 3
        assert all(e.shard == 2 for e in events)

    def test_short_window_completes_healthy(self):
        # A run shorter than one heartbeat interval: the completion
        # itself is the evidence of health.
        plane = self.plane()
        plane.run(heartbeat_events(0, 0.0, 40.0, self.HB))
        assert plane.shards[0].state == HEALTHY
        assert plane.all_healthy()

    def test_degraded_cycle_returns_to_healthy(self):
        plane = self.plane()
        plane.run([
            ShardEvent(0, "register", 0.0),
            ShardEvent(0, "heartbeat", 100.0),
            ShardEvent(0, "degraded_enter", 150.0),
            ShardEvent(0, "degraded_exit", 180.0),
            ShardEvent(0, "heartbeat", 200.0),
            ShardEvent(0, "complete", 250.0),
        ])
        walk = [(a, b) for _, a, b, _ in plane.shards[0].transitions]
        assert walk == [
            ("registered", HEALTHY),
            (HEALTHY, DEGRADED),
            (DEGRADED, REBUILDING),
            (REBUILDING, HEALTHY),
        ]
        assert plane.all_healthy()

    def test_silent_shard_is_dead_and_can_rejoin(self):
        plane = self.plane()
        plane.run([
            ShardEvent(0, "register", 0.0),
            ShardEvent(0, "heartbeat", 100.0),
            # Silence past miss_after * heartbeat_ns, then a rejoin.
            ShardEvent(0, "heartbeat", 900.0),
            ShardEvent(0, "heartbeat", 1000.0),
            ShardEvent(0, "complete", 1050.0),
        ])
        states = [b for _, _, b, _ in plane.shards[0].transitions]
        assert DEAD in states
        assert states[states.index(DEAD):] == [DEAD, REBUILDING, HEALTHY]
        assert plane.all_healthy()

    def test_shard_that_never_completes_finalizes_dead(self):
        plane = self.plane()
        plane.run(
            heartbeat_events(0, 0.0, 2000.0, self.HB)
            + [ShardEvent(1, "register", 0.0),
               ShardEvent(1, "heartbeat", 100.0)]
        )
        assert plane.shards[0].state == HEALTHY
        assert plane.shards[1].state == DEAD
        assert not plane.all_healthy()

    def test_tie_break_order_is_exit_before_heartbeat(self):
        # Same timestamp: the degraded_exit processes before the
        # heartbeat that proves the rebuild, so the shard lands HEALTHY.
        assert EVENT_KINDS.index("degraded_exit") < EVENT_KINDS.index(
            "heartbeat"
        )
        plane = self.plane()
        plane.run([
            ShardEvent(0, "register", 0.0),
            ShardEvent(0, "degraded_enter", 10.0),
            ShardEvent(0, "heartbeat", 50.0),
            ShardEvent(0, "degraded_exit", 50.0),
            ShardEvent(0, "complete", 60.0),
        ])
        assert plane.shards[0].state == HEALTHY

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ShardEvent(0, "reboot", 0.0)
        with pytest.raises(ValueError):
            ControlPlane(0.0)
        with pytest.raises(ValueError):
            ControlPlane(100.0, miss_after=0)
        plane = self.plane()
        plane.register(0)
        with pytest.raises(ValueError):
            plane.register(0)
        with pytest.raises(ValueError):
            plane.observe(ShardEvent(5, "heartbeat", 10.0))

    def test_zero_heartbeat_raises_instead_of_hanging(self):
        # A non-positive cadence never advances the heartbeat train, so
        # an unchecked loop would append forever: run it in a child with
        # a memory cap and a timeout, so a regression fails, not hangs.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
            "from repro.core.sharding.control import heartbeat_events\n"
            "from repro.serve.fleet import FleetConfig, run_fleet\n"
            "from repro.serve.loadgen import WorkloadConfig\n"
            "wl = WorkloadConfig(name='tiny', n_requests=20, n_keys=200,\n"
            "                    stored_keys=16, arrival='poisson')\n"
            "for call in (lambda: heartbeat_events(0, 0.0, 1000.0, 0.0),\n"
            "             lambda: run_fleet(FleetConfig(\n"
            "                 workload=wl, levels=8, num_shards=2,\n"
            "                 heartbeat_ns=0.0))):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        assert str(exc) == 'heartbeat_ns must be positive'\n"
            "    else:\n"
            "        raise AssertionError('no ValueError')\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src,
                 "OPENBLAS_NUM_THREADS": "1"},
        )

    def test_summary_is_deterministic(self):
        def build():
            plane = self.plane()
            plane.run(
                heartbeat_events(1, 0.0, 500.0, self.HB)
                + heartbeat_events(0, 0.0, 450.0, self.HB)
            )
            return plane.summary()
        assert canon(build()) == canon(build())
        assert [s["shard"] for s in build()["shards"]] == [0, 1]


# ------------------------------------------------------ capacity curve

def tiny_scaling_config(**overrides):
    from repro.serve.scaling import ScalingCell, ScalingConfig
    wl = tiny_workload(n_requests=120, stored_keys=48)
    blocks = 2 ** 10
    cells = tuple(
        ScalingCell(
            name="cap-1k", total_blocks=blocks, shards=s, workload=wl,
        )
        for s in (1, 2)
    )
    kwargs = dict(
        measured_levels=8, cells=cells, smoke=True, min_speedup=1.2,
    )
    kwargs.update(overrides)
    return ScalingConfig(**kwargs)


class TestScalingHarness:
    def test_memory_block_invariants(self):
        from repro.serve.scaling import IMBALANCE_MARGIN, memory_block
        total = 2 ** 20
        prev_per_shard = None
        for shards in (1, 2, 4, 8, 16):
            mem = memory_block("ab", total, shards)
            assert mem["fleet_bytes"] == mem["per_shard_bytes"] * shards
            cap = mem["per_shard_capacity"]
            if shards == 1:
                assert cap == total
            else:
                assert cap * shards >= total * IMBALANCE_MARGIN - shards
            levels = mem["shard_levels"]
            assert schemes_mod.by_name("ab", levels).n_real_blocks >= cap
            if prev_per_shard is not None:
                assert mem["per_shard_bytes"] <= prev_per_shard
            prev_per_shard = mem["per_shard_bytes"]
        single = memory_block("ab", total, 1)
        assert single["per_shard_bytes"] == single["single_tree_bytes"]

    def test_tiny_curve_end_to_end(self):
        from repro.serve.schema import render_scaling_report
        from repro.serve.scaling import run_scaling, scaling_check
        from repro.serve.schema import SCALING, validate_scaling_report
        doc = run_scaling(tiny_scaling_config())
        assert validate_scaling_report(doc) == []
        assert scaling_check(doc) == []
        by_shards = {c["shards"]: c for c in doc["cells"]}
        s1 = by_shards[1]["sim"]["fleet"]["ns_per_request"]
        s2 = by_shards[2]["sim"]["fleet"]["ns_per_request"]
        assert s2 < s1  # two shards drain the window faster than one
        text = render_scaling_report(doc)
        assert "cap-1k" in text
        # The deterministic view is a pure function of the config.
        again = run_scaling(tiny_scaling_config())
        assert (SCALING.deterministic_bytes(doc)
                == SCALING.deterministic_bytes(again))

    def test_compare_accepts_self(self):
        from repro.serve.schema import SCALING
        from repro.serve.scaling import run_scaling
        doc = run_scaling(tiny_scaling_config())
        rc, lines = SCALING.compare(doc, doc)
        assert rc == 0
        assert all(line.startswith("OK") for line in lines)

    def test_speedup_gate_fires_on_a_doctored_report(self):
        from repro.serve.scaling import run_scaling, scaling_check
        cfg = tiny_scaling_config()
        from dataclasses import replace as dc_replace
        from repro.serve.scaling import ScalingCell
        cells = tuple(
            ScalingCell(
                name=c.name, total_blocks=c.total_blocks, shards=s,
                workload=c.workload,
            )
            for c, s in zip(cfg.cells, (1, 4))
        )
        doc = run_scaling(dc_replace(cfg, cells=cells))
        assert scaling_check(doc, min_speedup=1.0) == []
        problems = scaling_check(doc, min_speedup=50.0)
        assert any("below" in p for p in problems)


# ----------------------------------------------------- perf cell keys

class TestPerfShardCells:
    def test_cell_key_spells_out_shards(self):
        from repro.perf.schema import cell_key
        assert cell_key({"scheme": "ab", "trace": "mcf"}) == "ab/mcf"
        assert cell_key(
            {"scheme": "ab", "trace": "mcf", "shards": 4}
        ) == "ab/mcf@s4"
        assert cell_key(
            {"scheme": "ns", "trace": "mcf", "pipeline_depth": 4}
        ) == "ns/mcf@p4"

    def test_configs_prune_extras_outside_the_matrix(self):
        from repro.perf.runner import full_config, smoke_config
        cfg = smoke_config()
        assert ("ab", "mcf", 4) in cfg.shards
        narrowed = smoke_config(schemes=("ring",))
        assert narrowed.shards == ()
        assert narrowed.pipeline == ()
        kept = full_config(benchmarks=("mcf",))
        assert ("ab", "mcf", 4) in kept.shards
