"""Tests for the serving subsystem (repro.serve)."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os

import numpy as np
import pytest
from conftest import reference_replay
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import (
    DELETE,
    GET,
    PUT,
    BatchScheduler,
    KVServer,
    Request,
    build_stack,
)
from repro.serve.bench import dedup_check, run_serve, smoke_config
from repro.serve.loadgen import (
    WorkloadConfig,
    _zipf_ranks,
    generate_requests,
    initial_items,
    key_name,
    value_for,
)
from repro.serve.replay import replay
from repro.serve.resilience import ResilienceConfig, resilient_replay
from repro.serve.scheduler import MAX_BATCH
from repro.serve.schema import SERVE, validate_report
from repro.telemetry import assign_lanes, request_trace_doc


def small_stack(levels: int = 8, seed: int = 0, observer: bool = False):
    return build_stack(levels=levels, seed=seed, observer=observer)


def req(rid, op, key, value=None, arrival=0.0):
    return Request(rid=rid, op=op, key=key, value=value, arrival_ns=arrival)


# ---------------------------------------------------------------- requests

class TestRequest:
    def test_put_requires_value(self):
        with pytest.raises(ValueError):
            req(0, PUT, b"k")

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            req(0, "scan", b"k")

    def test_completion_windows(self):
        stack = small_stack()
        sched = BatchScheduler(stack.kv, clock=lambda: stack.dram_sink.now)
        comps = sched.serve_batch([req(0, PUT, b"a", b"v1")])
        (c,) = comps
        assert c.queue_ns >= 0
        assert c.service_ns > 0
        assert c.latency_ns == c.queue_ns + c.service_ns


# ---------------------------------------------------------------- scheduler

class TestSchedulerCorrectness:
    def test_exact_values_per_client(self):
        """Every client gets the value a serial per-key replay dictates."""
        stack = small_stack()
        sched = BatchScheduler(stack.kv, policy="batch", seed=3)
        batch = [
            req(0, PUT, b"a", b"a0"),
            req(1, PUT, b"b", b"b0"),
            req(2, GET, b"a"),
            req(3, PUT, b"a", b"a1"),
            req(4, GET, b"a"),
            req(5, GET, b"b"),
            req(6, DELETE, b"b"),
            req(7, GET, b"b"),
            req(8, GET, b"c"),
        ]
        by_rid = {c.rid: c for c in sched.serve_batch(batch)}
        assert len(by_rid) == len(batch)
        assert by_rid[2].value == b"a0"
        assert by_rid[4].value == b"a1"
        assert by_rid[5].value == b"b0"
        assert by_rid[6].ok is True
        assert by_rid[7].value is None and not by_rid[7].ok
        assert by_rid[8].value is None and not by_rid[8].ok
        assert stack.kv.get(b"a") == b"a1"
        assert stack.kv.get(b"b") is None

    def test_same_key_waiters_share_one_access(self):
        """N same-key gets in a batch cost exactly one chain access."""
        stack = small_stack()
        stack.kv.put(b"hot", b"x" * 100)   # two chunks
        sched = BatchScheduler(stack.kv, policy="batch")
        one = sched.serve_batch([req(0, GET, b"hot")])
        per_get = one[0].accesses
        assert per_get > 0

        batch = [req(i, GET, b"hot", arrival=float(i)) for i in range(1, 6)]
        comps = sched.serve_batch(batch)
        assert sum(c.accesses for c in comps) == per_get
        assert sched.dedup_hits == 4
        assert all(c.value == b"x" * 100 for c in comps)
        dedup = [c for c in comps if c.dedup]
        assert len(dedup) == 4
        # Waiters complete at the shared access's completion time.
        first = next(c for c in comps if not c.dedup)
        assert all(c.done_ns == first.done_ns for c in dedup)

    def test_absent_key_gets_not_deduped(self):
        stack = small_stack()
        sched = BatchScheduler(stack.kv, policy="batch")
        comps = sched.serve_batch([req(0, GET, b"nope"), req(1, GET, b"nope")])
        assert all(c.value is None for c in comps)
        assert sched.dedup_hits == 0
        assert sched.absent_gets == 2

    def test_superseded_put_is_coalesced(self):
        stack = small_stack()
        sched = BatchScheduler(stack.kv, policy="batch")
        comps = sched.serve_batch([
            req(0, PUT, b"k", b"old"),
            req(1, PUT, b"k", b"new"),
            req(2, GET, b"k"),
        ])
        by_rid = {c.rid: c for c in comps}
        assert by_rid[0].coalesced and by_rid[0].ok
        assert not by_rid[1].coalesced
        assert by_rid[2].value == b"new"
        assert sched.coalesced_puts == 1
        # The coalesced ack is only durable once the surviving write
        # lands: both complete at the same instant.
        assert by_rid[0].done_ns == by_rid[1].done_ns
        assert stack.kv.get(b"k") == b"new"

    def test_put_get_put_not_coalesced(self):
        """A get between writes pins the first put: no coalescing."""
        stack = small_stack()
        sched = BatchScheduler(stack.kv, policy="batch")
        comps = sched.serve_batch([
            req(0, PUT, b"k", b"first"),
            req(1, GET, b"k"),
            req(2, PUT, b"k", b"second"),
        ])
        by_rid = {c.rid: c for c in comps}
        assert not by_rid[0].coalesced
        assert by_rid[1].value == b"first"
        assert sched.coalesced_puts == 0
        assert stack.kv.get(b"k") == b"second"

    def test_put_then_delete_coalesces_the_put(self):
        stack = small_stack()
        sched = BatchScheduler(stack.kv, policy="batch")
        comps = sched.serve_batch([
            req(0, PUT, b"k", b"doomed"),
            req(1, DELETE, b"k"),
        ])
        by_rid = {c.rid: c for c in comps}
        assert by_rid[0].coalesced
        assert sched.coalesced_puts == 1
        assert stack.kv.get(b"k") is None

    def test_delete_then_get_in_batch(self):
        stack = small_stack()
        stack.kv.put(b"k", b"v")
        sched = BatchScheduler(stack.kv, policy="batch")
        comps = sched.serve_batch([req(0, DELETE, b"k"), req(1, GET, b"k")])
        by_rid = {c.rid: c for c in comps}
        assert by_rid[0].ok
        assert by_rid[1].value is None and not by_rid[1].ok

    def test_fifo_policy_preserves_arrival_order(self):
        stack = small_stack()
        sched = BatchScheduler(stack.kv, policy="fifo")
        batch = [
            req(0, PUT, b"z", b"vz"),
            req(1, PUT, b"a", b"va"),
            req(2, GET, b"z"),
            req(3, GET, b"z"),
        ]
        comps = sched.serve_batch(batch)
        assert [c.rid for c in comps] == [0, 1, 2, 3]
        assert sched.dedup_hits == 0
        assert comps[2].accesses > 0 and comps[3].accesses > 0

    def test_unknown_policy_rejected(self):
        stack = small_stack()
        with pytest.raises(ValueError):
            BatchScheduler(stack.kv, policy="lifo")

    def test_stats_shape(self):
        stack = small_stack()
        sched = BatchScheduler(stack.kv, policy="batch")
        sched.serve_batch([req(0, PUT, b"k", b"v")])
        sched.serve_batch([req(1, GET, b"k"), req(2, GET, b"k")])
        s = sched.stats()
        assert s["requests"] == 3
        assert s["batches"] == 2
        assert s["ops"] == {GET: 2, PUT: 1, DELETE: 0}
        assert s["batch_size_hist"] == [[1, 1], [2, 1]]
        assert s["accesses_issued"] > 0


class TestSchedulerDeterminism:
    def test_served_order_independent_of_submission_order(self):
        """Shuffling a batch must not change the served key order."""
        keys = [b"k%d" % i for i in range(10)]
        batch = [req(i, GET, keys[i]) for i in range(10)]
        orders = []
        for perm_seed in (0, 1, 2):
            stack = small_stack()
            for k in keys:
                stack.kv.put(k, b"v-" + k)
            rng = np.random.default_rng(perm_seed)
            shuffled = [batch[i] for i in rng.permutation(10)]
            sched = BatchScheduler(stack.kv, policy="batch", seed=7)
            comps = sched.serve_batch(shuffled)
            orders.append([c.key for c in comps])
        assert orders[0] == orders[1] == orders[2]

    def test_order_depends_on_seed(self):
        stack = small_stack()
        a = BatchScheduler(stack.kv, policy="batch", seed=0)
        b = BatchScheduler(stack.kv, policy="batch", seed=1)
        keys = [b"k%d" % i for i in range(16)]
        assert (sorted(keys, key=a.order_key)
                != sorted(keys, key=b.order_key))


# ----------------------------------------------------------------- loadgen

class TestLoadgen:
    def test_generation_is_deterministic(self):
        cfg = WorkloadConfig(name="w", n_requests=300, stored_keys=50,
                             n_keys=10_000)
        a = generate_requests(cfg)
        b = generate_requests(cfg)
        assert [(r.rid, r.op, r.key, r.value, r.arrival_ns) for r in a] \
            == [(r.rid, r.op, r.key, r.value, r.arrival_ns) for r in b]

    def test_seed_changes_workload(self):
        cfg = WorkloadConfig(name="w", n_requests=300, stored_keys=50,
                             n_keys=10_000)
        a = generate_requests(cfg)
        b = generate_requests(dataclasses.replace(cfg, seed=1))
        assert [r.key for r in a] != [r.key for r in b]

    def test_million_key_universe_folds_onto_store(self):
        cfg = WorkloadConfig(name="w", n_requests=2000, stored_keys=64,
                             n_keys=4_000_000, zipf_s=1.1)
        reqs = generate_requests(cfg)
        keys = {r.key for r in reqs}
        assert keys <= {key_name(i) for i in range(64)}
        # Zipf head concentrates on the first stored keys.
        counts = {k: 0 for k in keys}
        for r in reqs:
            counts[r.key] += 1
        assert counts[key_name(0)] > len(reqs) / 64

    @pytest.mark.parametrize("n_keys,s", [
        (1, 0.99), (7, 0.5), (10_000, 0.99), (200_000, 1.1), (2_000_000, 0.99),
    ])
    def test_zipf_cdf_in_place_matches_the_plain_expression(self, n_keys, s):
        # The CDF is built in one buffer; the plain expression it
        # replaced is the reference, ranks compared draw for draw.
        def reference(rng):
            weights = 1.0 / np.power(
                np.arange(1, n_keys + 1, dtype=np.float64), s
            )
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            return np.searchsorted(cdf, rng.random(5000), side="left")

        got = _zipf_ranks(n_keys, s, 5000, np.random.default_rng(3))
        assert np.array_equal(got, reference(np.random.default_rng(3)))

    def test_arrivals_sorted_and_open_loop(self):
        for arrival in ("poisson", "bursty"):
            cfg = WorkloadConfig(name="w", n_requests=500, arrival=arrival,
                                 stored_keys=10, n_keys=100)
            times = [r.arrival_ns for r in generate_requests(cfg)]
            assert times == sorted(times)
            assert times[-1] > 0

    def test_bursty_is_burstier_than_poisson(self):
        base = dict(name="w", n_requests=2000, stored_keys=10, n_keys=100,
                    rate_rps=1e6)
        gaps = {}
        for arrival in ("poisson", "bursty"):
            cfg = WorkloadConfig(arrival=arrival, **base)
            t = np.array([r.arrival_ns for r in generate_requests(cfg)])
            d = np.diff(t)
            gaps[arrival] = d.std() / d.mean()   # coefficient of variation
        assert gaps["bursty"] > gaps["poisson"] * 1.3

    def test_op_mix(self):
        cfg = WorkloadConfig(name="w", n_requests=3000, stored_keys=10,
                             n_keys=100, read_fraction=0.5,
                             delete_fraction=0.1)
        reqs = generate_requests(cfg)
        frac = {op: sum(r.op == op for r in reqs) / len(reqs)
                for op in (GET, PUT, DELETE)}
        assert abs(frac[GET] - 0.5) < 0.05
        assert abs(frac[DELETE] - 0.1) < 0.03
        assert all(r.value is not None for r in reqs if r.op == PUT)

    def test_value_for_embeds_key_and_rid(self):
        v = value_for(b"k00000007", 42, 80)
        assert v.startswith(b"k00000007|42|")
        assert value_for(b"k00000007", 42, 80) == v
        assert value_for(b"k00000007", 43, 80) != v

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(name="w", arrival="uniform")
        with pytest.raises(ValueError):
            WorkloadConfig(name="w", stored_keys=0)
        with pytest.raises(ValueError):
            WorkloadConfig(name="w", stored_keys=200, n_keys=100)
        with pytest.raises(ValueError):
            WorkloadConfig(name="w", read_fraction=0.9, delete_fraction=0.2)


# ------------------------------------------------------------------ replay

class TestReplay:
    def _workload(self, n=120):
        return WorkloadConfig(name="w", n_requests=n, stored_keys=30,
                              n_keys=1000, rate_rps=2e6, value_bytes=60)

    def test_replay_respects_arrivals(self):
        cfg = self._workload()
        stack = small_stack()
        stack.kv.preload(initial_items(cfg))
        sched = BatchScheduler(stack.kv, policy="batch",
                               clock=lambda: stack.dram_sink.now)
        result = replay(stack, generate_requests(cfg), sched, max_batch=16)
        assert len(result.completions) == cfg.n_requests
        for c in result.completions:
            if not c.coalesced:
                assert c.start_ns >= c.arrival_ns
            assert c.done_ns >= c.start_ns
        assert result.sim_ns > 0

    def test_replay_deterministic(self):
        cfg = self._workload()
        lat = []
        for _ in range(2):
            stack = small_stack()
            stack.kv.preload(initial_items(cfg))
            sched = BatchScheduler(stack.kv, policy="batch",
                                   clock=lambda: stack.dram_sink.now)
            result = replay(stack, generate_requests(cfg), sched)
            lat.append([c.latency_ns for c in result.completions])
        assert lat[0] == lat[1]

    def test_max_batch_validated(self):
        stack = small_stack()
        sched = BatchScheduler(stack.kv)
        with pytest.raises(ValueError):
            replay(stack, [], sched, max_batch=0)


# ---------------------------------------------------------------- one loop

LOOP_KEYS = [b"lk%d" % i for i in range(5)]

loop_ops = st.one_of(
    st.tuples(st.just(GET), st.sampled_from(LOOP_KEYS), st.none()),
    st.tuples(st.just(PUT), st.sampled_from(LOOP_KEYS),
              st.binary(min_size=1, max_size=40)),
    st.tuples(st.just(DELETE), st.sampled_from(LOOP_KEYS), st.none()),
)

#: Inter-arrival gaps in quarter-ns ticks -- the grid the DDR timings
#: keep the clock on, where ``now + (arrival - now)`` is exact. (Off
#: it the reference can leave the clock one ulp short of an arrival it
#: idled to; the loop lands on the arrival.) 0 is a same-instant burst,
#: the long gaps outlast a batch's service so the loop goes idle.
loop_gaps = st.one_of(
    st.just(0), st.integers(1, 2_000), st.integers(20_000, 400_000),
)

#: Hypothesis favours short lists; this pins a queue deeper than any
#: ``max_batch`` (as one t=0 backlog, or as bursts of three between
#: idle gaps).
DEEP_ARRIVALS = [
    ((PUT, LOOP_KEYS[i % 5], b"v%d" % i) if i % 3 == 0
     else (DELETE if i % 7 == 0 else GET, LOOP_KEYS[i % 5], None),
     (0, 0, 0, 40_000)[i % 4])
    for i in range(48)
]


class TestOneLoop:
    """``replay`` is ``resilient_replay`` under the null policy; the
    plain loop it used to be lives on as ``conftest.reference_replay``."""

    @staticmethod
    def _serve(loop, reqs, max_batch, policy):
        stack = small_stack()
        stack.kv.preload([(LOOP_KEYS[0], b"seed0"), (LOOP_KEYS[1], b"seed1")])
        sched = BatchScheduler(stack.kv, policy=policy, seed=3,
                               clock=lambda: stack.dram_sink.now)
        return [
            (c.rid, c.status, c.value, c.start_ns, c.done_ns, c.accesses)
            for c in loop(stack, reqs, sched, max_batch)
        ], stack.dram_sink.now

    @given(
        arrivals=st.lists(st.tuples(loop_ops, loop_gaps),
                          min_size=1, max_size=48),
        all_at_zero=st.booleans(),
        max_batch=st.sampled_from([1, 16, 32]),
        policy=st.sampled_from(["batch", "fifo"]),
    )
    @example(DEEP_ARRIVALS, True, 16, "batch")
    @example(DEEP_ARRIVALS, True, 32, "fifo")
    @example(DEEP_ARRIVALS, False, 1, "batch")
    @example(DEEP_ARRIVALS, False, 32, "batch")
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_replay_matches_the_reference_loop(
        self, arrivals, all_at_zero, max_batch, policy
    ):
        reqs, tick = [], 0
        for rid, ((op, key, value), gap) in enumerate(arrivals):
            tick += 0 if all_at_zero else gap
            reqs.append(req(rid, op, key, value, arrival=tick / 4))
        assert (
            self._serve(lambda *a: replay(*a).completions,
                        reqs, max_batch, policy)
            == self._serve(reference_replay, reqs, max_batch, policy)
        )

    def test_healthy_path_compares_no_requests(self, monkeypatch):
        # The whole workload queued at t=0: every round takes its batch
        # off a deep queue, by position.
        reqs = [
            req(i, GET, LOOP_KEYS[i % len(LOOP_KEYS)]) for i in range(100)
        ]
        stack = small_stack()
        sched = BatchScheduler(stack.kv, clock=lambda: stack.dram_sink.now)

        def no_compare(self, other):
            raise AssertionError("the serving loop compared two requests")

        monkeypatch.setattr(Request, "__eq__", no_compare)
        result = resilient_replay(
            stack, reqs, sched, ResilienceConfig(), max_batch=16,
        )
        assert sorted(c.rid for c in result.completions) == list(range(100))


# ----------------------------------------------------------------- preload

class TestPreload:
    def test_preload_costs_no_accesses(self):
        stack = small_stack()
        before = stack.kv.oram.online_accesses
        stack.kv.preload([(b"a", b"v" * 100), (b"b", b"w")])
        assert stack.kv.oram.online_accesses == before
        assert stack.kv.get(b"a") == b"v" * 100
        assert stack.kv.get(b"b") == b"w"

    def test_preload_rejects_existing_key(self):
        stack = small_stack()
        stack.kv.preload([(b"a", b"v")])
        with pytest.raises(ValueError):
            stack.kv.preload([(b"a", b"again")])


# ------------------------------------------------------------------ server

class TestKVServer:
    def test_blocking_round_trip(self):
        stack = small_stack()
        with KVServer(stack.kv) as server:
            server.put(b"k", b"v1")
            assert server.submit(GET, b"k").result().value == b"v1"
            assert server.submit(DELETE, b"k").result().ok is True
            assert server.submit(GET, b"k").result().value is None

    def test_concurrent_clients(self):
        import threading

        stack = small_stack()
        server = KVServer(stack.kv)
        errors = []

        def client(cid):
            try:
                key = b"client-%d" % cid
                for i in range(5):
                    server.put(key, b"%d:%d" % (cid, i))
                    got = server.submit(GET, key).result().value
                    assert got == b"%d:%d" % (cid, i), (cid, i, got)
            except Exception as exc:   # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.close()
        assert errors == []
        assert server.stats()["requests"] == 4 * 10

    def test_close_drains_pending(self):
        # More puts than one batch holds: close() drains several rounds.
        stack = small_stack()
        server = KVServer(stack.kv)
        futures = [server.submit(PUT, b"k%d" % i, b"v")
                   for i in range(MAX_BATCH + 6)]
        server.close()
        assert all(f.result(timeout=5).ok for f in futures)

    def test_submit_after_close_raises(self):
        stack = small_stack()
        server = KVServer(stack.kv)
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(GET, b"k")


# ----------------------------------------------------------------- tracing

class TestTracing:
    def _completions(self):
        cfg = WorkloadConfig(name="w", n_requests=60, stored_keys=20,
                             n_keys=500, rate_rps=3e6)
        from repro.telemetry import Telemetry
        telemetry = Telemetry()
        stack = build_stack(levels=8, telemetry=telemetry, observer=False)
        stack.kv.preload(initial_items(cfg))
        sched = BatchScheduler(stack.kv, policy="batch",
                               clock=lambda: stack.dram_sink.now)
        result = replay(stack, generate_requests(cfg), sched)
        return result.completions, telemetry.spans

    def test_lanes_never_overlap(self):
        comps, _ = self._completions()
        lanes = assign_lanes(comps)
        by_lane = {}
        for c in comps:
            by_lane.setdefault(lanes[c.rid], []).append(c)
        for members in by_lane.values():
            members.sort(key=lambda c: c.arrival_ns)
            for prev, cur in zip(members, members[1:]):
                assert prev.done_ns <= cur.arrival_ns

    def test_trace_doc_validates(self, tmp_path):
        comps, spans = self._completions()
        doc = request_trace_doc(comps, spans, meta={"workload": "w"})
        tools = os.path.join(os.path.dirname(__file__), os.pardir,
                             "tools", "check_trace.py")
        spec = importlib.util.spec_from_file_location("check_trace", tools)
        check_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_trace)
        errors = check_trace.validate_trace(
            doc, require_kinds=["readPath", "queue", "get"], min_spans=50,
        )
        assert errors == []
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e.get("ph") == "X"}
        assert {"oram", "serve.queue", "serve.oram"} <= cats


# ---------------------------------------------------------- schema + bench

def tiny_serve_config(**overrides):
    wl = dict(n_requests=150, n_keys=5000, stored_keys=60, value_bytes=60,
              rate_rps=2.5e6)
    workloads = (
        WorkloadConfig(name="p", arrival="poisson", expect_dedup=False, **wl),
        WorkloadConfig(name="b", arrival="bursty", zipf_s=1.2,
                       burst_factor=8.0, expect_dedup=True, **wl),
    )
    return smoke_config(levels=8, workloads=workloads, **overrides)


class TestBenchAndSchema:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_serve(tiny_serve_config())

    def test_report_validates(self, doc):
        assert validate_report(doc) == []

    def test_dedup_beats_fifo(self, doc):
        assert dedup_check(doc) == []
        cells = {(c["workload"], c["policy"]): c for c in doc["cells"]}
        assert (cells[("b", "batch")]["sim"]["accesses_per_request"]
                < cells[("b", "fifo")]["sim"]["accesses_per_request"])

    def test_security_observer_sees_no_leak(self, doc):
        for cell in doc["cells"]:
            sec = cell["sim"]["security"]
            assert sec["guesses"] > 0
            assert abs(sec["advantage"]) < 0.12   # tiny-sample tolerance

    def test_deterministic_view_strips_wall_fields(self, doc):
        view = SERVE.deterministic_view(doc)
        for cell in view["cells"]:
            assert "wall_s" not in cell
            assert "wall_latency_us" not in cell
            assert "sim" in cell
        assert "environment" not in view

    def test_workers_do_not_change_deterministic_bytes(self, doc):
        par = run_serve(tiny_serve_config(workers=2))
        assert SERVE.deterministic_bytes(par) == SERVE.deterministic_bytes(doc)

    def test_validator_catches_corruption(self, doc):
        bad = json.loads(json.dumps(doc))
        del bad["cells"][0]["sim"]["dedup_hits"]
        bad["cells"][1]["wall_s"] = -1.0
        errors = validate_report(bad)
        assert any("dedup_hits" in e for e in errors)
        assert any("wall_s" in e for e in errors)

    def test_validator_checks_the_security_block(self, doc):
        bad = json.loads(json.dumps(doc))
        bad["cells"][0]["sim"]["security"]["guesses"] = "many"
        del bad["cells"][1]["sim"]["security"]["advantage"]
        errors = validate_report(bad)
        assert any("security.guesses" in e for e in errors), errors
        assert any("security: missing field 'advantage'" in e
                   for e in errors), errors

    def test_dedup_check_flags_synthetic_loss(self, doc):
        bad = json.loads(json.dumps(doc))
        for cell in bad["cells"]:
            if cell["policy"] == "batch":
                cell["sim"]["accesses_issued"] = 10 ** 9
        problems = dedup_check(bad)
        assert problems and any("more accesses" in p for p in problems)


# --------------------------------------------------------------------- CLI

class TestServeCli:
    def test_demo_runs(self, capsys):
        from repro.cli import main
        rc = main(["serve", "demo", "--levels", "8", "--clients", "2",
                   "--requests", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve demo" in out
        assert "attacker advantage" in out

    @pytest.mark.parametrize("flags", [
        ["--clients", "0"],
        ["--clients", "-1"],
        ["--requests", "0"],
        ["--levels", "1"],
    ], ids=["clients-zero", "clients-negative", "requests-zero", "levels"])
    def test_demo_bad_input_is_a_clean_error(self, capsys, flags):
        from repro.cli import main
        rc = main(["serve", "demo", "--levels", "8", "--clients", "2",
                   "--requests", "40", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_compare_identical_reports(self, tmp_path, capsys):
        from repro.cli import main
        doc = run_serve(tiny_serve_config())
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        rc = main(["serve", "compare", str(path), str(path)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_detects_regression(self, tmp_path, capsys):
        from repro.cli import main
        doc = run_serve(tiny_serve_config())
        base = tmp_path / "base.json"
        base.write_text(json.dumps(doc))
        worse = json.loads(json.dumps(doc))
        for cell in worse["cells"]:
            cell["sim"]["latency_ns"]["p99"] *= 2.0
        new = tmp_path / "new.json"
        new.write_text(json.dumps(worse))
        assert main(["serve", "compare", str(base), str(new)]) == 1
        capsys.readouterr()
        assert main(["serve", "compare", str(base), str(new),
                     "--warn-only"]) == 0
        assert "warn-only" in capsys.readouterr().out

    def test_serve_sugar_defaults_to_bench(self):
        from repro.cli import build_parser
        # Parsing only: "serve --smoke" must route to the bench parser
        # (main() inserts the "bench" sugar, then parses; running the
        # actual smoke matrix here would be too slow).
        argv = ["serve", "--smoke"]
        if argv[1].startswith("-"):
            argv.insert(1, "bench")
        args = build_parser().parse_args(argv)
        assert args.serve_command == "bench" and args.smoke
