"""Tests for the chaos-hardened serving layer.

Covers the resilient serving loop (deadlines, admission control,
degraded mode, write-journal replay), the chaos campaign report
machinery (schema, gate, compare), the bounded ``KVServer.close`` fix,
and -- the load-bearing one -- a hypothesis property test proving
per-key FIFO consistency holds across degraded-mode entry and exit,
including the journal replay.
"""

import copy
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.oram.recovery import RobustnessConfig
from repro.serve import (
    DELETE, GET, PUT, BatchScheduler, KVServer, Request, build_stack,
)
from repro.serve.chaos import (
    ChaosCell, ChaosConfig, chaos_check, run_chaos,
)
from repro.report import (
    EXIT_ERROR, EXIT_OK, EXIT_REGRESSION, compare_files,
)
from repro.serve.loadgen import WorkloadConfig
from repro.serve.request import FAILED, OK, SHED, STATUSES, TIMED_OUT
from repro.serve.resilience import (
    ResilienceConfig, _journal_view, resilient_replay,
)
from repro.serve.schema import CHAOS, validate_chaos_report

LEVELS = 8


# ------------------------------------------------------------------ helpers

def sealed_stack(items, seed=0):
    """A sealed (MAC + Merkle) stack populated through real puts."""
    stack = build_stack(
        levels=LEVELS, seed=seed, observer=False,
        robustness=RobustnessConfig(integrity=True),
    )
    for key, value in items:
        stack.kv.put(key, value)
    return stack


def plain_stack(items, seed=0):
    stack = build_stack(levels=LEVELS, seed=seed, observer=False)
    stack.kv.preload(items)
    return stack


def scheduler_for(stack, seed=0):
    return BatchScheduler(
        stack.kv, policy="batch", seed=seed,
        clock=lambda: stack.dram_sink.now,
    )


def by_rid(completions):
    return {c.rid: c for c in completions}


def shifted(stack, requests):
    """Re-anchor arrivals at "now": populating a sealed stack advances
    the simulated clock, so near-zero arrivals would all be in the past
    (and admitted as one burst) by the time the loop starts."""
    from dataclasses import replace
    t0 = stack.dram_sink.now
    return [replace(r, arrival_ns=r.arrival_ns + t0) for r in requests]


# --------------------------------------------------------- ResilienceConfig

class TestResilienceConfig:
    def test_defaults_valid(self):
        ResilienceConfig()

    @pytest.mark.parametrize("kw", [
        {"shed_policy": "oldest-first"},
        {"deadline_ns": -1.0},
        {"queue_limit": -1},
        {"retry_budget": -1},
        {"backoff_base_ns": -1.0},
        {"backoff_factor": 0.5},
        {"journal_limit": -1},
        {"repair_ns": 0.0},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            ResilienceConfig(**kw)

    def test_roundtrip(self):
        cfg = ResilienceConfig(
            deadline_ns=1e6, queue_limit=8, shed_policy="drop-oldest",
            retry_budget=5, backoff_base_ns=100.0, backoff_factor=1.5,
            journal_limit=7, repair_ns=2e5,
        )
        assert ResilienceConfig(**cfg.to_dict()) == cfg


# ------------------------------------------------------------- journal view

class TestJournalView:
    def _journal(self):
        return [
            Request(rid=1, op=PUT, key=b"a", value=b"v1", arrival_ns=10.0),
            Request(rid=2, op=PUT, key=b"a", value=b"v2", arrival_ns=20.0),
            Request(rid=3, op=DELETE, key=b"b", arrival_ns=30.0),
        ]

    def test_newest_older_write_wins(self):
        assert _journal_view(self._journal(), b"a", (25.0, 9)) == (True, b"v2")

    def test_cutoff_excludes_newer_writes(self):
        assert _journal_view(self._journal(), b"a", (15.0, 9)) == (True, b"v1")

    def test_cutoff_is_exclusive(self):
        # A write at exactly the cutoff did not arrive *before* it.
        assert _journal_view(self._journal(), b"a", (10.0, 1)) == (False, None)

    def test_delete_yields_none(self):
        assert _journal_view(self._journal(), b"b", (99.0, 9)) == (True, None)

    def test_unjournaled_key(self):
        assert _journal_view(self._journal(), b"z", (99.0, 9)) == (False, None)


# ---------------------------------------------------------------- deadlines

class TestDeadlines:
    def test_slow_queue_times_out_late_requests(self):
        keys = [b"dk%d" % i for i in range(10)]
        stack = plain_stack([(k, b"v-" + k) for k in keys])
        reqs = [
            Request(rid=i, op=GET, key=k, arrival_ns=0.0)
            for i, k in enumerate(keys)
        ]
        result = resilient_replay(
            stack, reqs, scheduler_for(stack),
            ResilienceConfig(deadline_ns=2_000.0), max_batch=32,
        )
        status = Counter(c.status for c in result.completions)
        assert len(result.completions) == len(reqs)
        # One access takes ~us of simulated DRAM time: the first request
        # is served, the rest expire against a 2us deadline.
        assert status.get(OK, 0) >= 1
        assert status.get(TIMED_OUT, 0) >= 1
        for c in result.completions:
            if c.status == TIMED_OUT:
                assert not c.ok and c.accesses == 0

    def test_no_deadline_serves_everything(self):
        keys = [b"dk%d" % i for i in range(10)]
        stack = plain_stack([(k, b"v-" + k) for k in keys])
        reqs = [
            Request(rid=i, op=GET, key=k, arrival_ns=0.0)
            for i, k in enumerate(keys)
        ]
        result = resilient_replay(
            stack, reqs, scheduler_for(stack), ResilienceConfig(),
        )
        assert {c.status for c in result.completions} == {OK}
        assert len(result.completions) == len(reqs)
        for c in result.completions:
            assert c.value == b"v-" + c.key


# --------------------------------------------------------- admission control

class TestAdmissionControl:
    def _burst(self, n=6):
        return [
            Request(rid=i, op=GET, key=b"ak%d" % i, arrival_ns=0.0)
            for i in range(n)
        ]

    def test_reject_new_sheds_latest_arrivals(self):
        stack = plain_stack([(b"ak%d" % i, b"v%d" % i) for i in range(6)])
        result = resilient_replay(
            stack, self._burst(), scheduler_for(stack),
            ResilienceConfig(queue_limit=2, shed_policy="reject-new"),
        )
        comps = by_rid(result.completions)
        shed = {rid for rid, c in comps.items() if c.status == SHED}
        assert shed == {2, 3, 4, 5}
        assert comps[0].status == OK and comps[1].status == OK

    def test_drop_oldest_sheds_queue_head(self):
        stack = plain_stack([(b"ak%d" % i, b"v%d" % i) for i in range(6)])
        result = resilient_replay(
            stack, self._burst(), scheduler_for(stack),
            ResilienceConfig(queue_limit=2, shed_policy="drop-oldest"),
        )
        comps = by_rid(result.completions)
        shed = {rid for rid, c in comps.items() if c.status == SHED}
        assert shed == {0, 1, 2, 3}
        assert comps[4].status == OK and comps[5].status == OK

    def test_shed_completions_carry_no_effect(self):
        stack = plain_stack([(b"ak0", b"old")])
        reqs = [
            Request(rid=0, op=PUT, key=b"ak0", value=b"new", arrival_ns=0.0),
            Request(rid=1, op=GET, key=b"ak0", arrival_ns=0.0),
            Request(rid=2, op=GET, key=b"ak0", arrival_ns=0.0),
        ]
        result = resilient_replay(
            stack, reqs, scheduler_for(stack),
            ResilienceConfig(queue_limit=1, shed_policy="drop-oldest"),
        )
        comps = by_rid(result.completions)
        # The put was dropped from the queue head: the surviving get
        # still sees the pre-burst value.
        assert comps[0].status == SHED
        assert comps[2].status == OK and comps[2].value == b"old"


# ------------------------------------------------------------ degraded mode

class TestDegradedMode:
    def test_episode_journal_and_replay(self):
        ka, kb = b"deg-a", b"deg-b"
        stack = sealed_stack([(ka, b"init-a"), (kb, b"init-b")])
        oram = stack.kv.oram
        # Wound the store before serving: the loop serves its first
        # batch, notices the pending quarantine, and goes degraded.
        oram._quarantine(0)
        reqs = [
            Request(rid=0, op=GET, key=ka, arrival_ns=0.0),
            Request(rid=1, op=PUT, key=kb, value=b"new-b", arrival_ns=50.0),
            Request(rid=2, op=GET, key=kb, arrival_ns=60.0),
            Request(rid=3, op=GET, key=b"deg-absent", arrival_ns=70.0),
            Request(rid=4, op=GET, key=kb, arrival_ns=1_500_000.0),
        ]
        result = resilient_replay(
            stack, shifted(stack, reqs), scheduler_for(stack),
            ResilienceConfig(repair_ns=100_000.0, journal_limit=8),
        )
        comps = by_rid(result.completions)
        assert len(comps) == len(reqs)
        # One full episode: entered, rebuilt the quarantined bucket,
        # replayed the single journaled write.
        assert len(result.episodes) == 1
        ep = result.episodes[0]
        assert ep["rebuilt"] >= 1
        assert ep["journal_replayed"] == 1
        assert ep["exit_ns"] > ep["enter_ns"]
        assert oram.quarantine_pending == 0
        # The degraded read on the journaled key sees the journal.
        assert comps[2].status == OK and comps[2].degraded
        assert comps[2].value == b"new-b" and comps[2].accesses == 0
        # The absent key is answerable client-side (directory miss).
        assert comps[3].status == OK and comps[3].degraded
        assert not comps[3].ok and comps[3].value is None
        # The replayed write completed as a degraded-served put.
        assert comps[1].status == OK and comps[1].degraded
        # After repair the store serves normally and durably.
        assert comps[4].status == OK and not comps[4].degraded
        assert comps[4].value == b"new-b"
        assert result.journal_appends == 1
        assert result.degraded_reads >= 2
        kinds = [e["kind"] for e in result.events]
        assert "degraded_enter" in kinds and "degraded_exit" in kinds

    def test_journal_bound_sheds_writes(self):
        stack = sealed_stack([(b"jb-a", b"va")])
        stack.kv.oram._quarantine(0)
        reqs = [
            Request(rid=0, op=GET, key=b"jb-a", arrival_ns=0.0),
            Request(rid=1, op=PUT, key=b"jb-b", value=b"v1", arrival_ns=50.0),
            Request(rid=2, op=PUT, key=b"jb-c", value=b"v2", arrival_ns=60.0),
            Request(rid=3, op=PUT, key=b"jb-d", value=b"v3", arrival_ns=70.0),
        ]
        result = resilient_replay(
            stack, shifted(stack, reqs), scheduler_for(stack),
            ResilienceConfig(repair_ns=100_000.0, journal_limit=1),
        )
        comps = by_rid(result.completions)
        assert result.journal_appends == 1
        assert result.journal_sheds == 2
        assert comps[1].status == OK          # journaled, then replayed
        assert comps[2].status == SHED
        assert comps[3].status == SHED

    def test_repair_clears_backoffs_so_reads_are_not_overtaken(self):
        """A read parked in retry backoff across a repair must be served
        before any newer same-key write -- the repair clears surviving
        backoffs precisely so the admission-ordered queue drains FIFO."""
        items = [(b"ov-target", b"old")] + [
            (b"ov-fill%d" % i, b"f%d" % i) for i in range(12)
        ]
        stack = sealed_stack(items)
        kv = stack.kv
        # The target key must be cold (evicted into the tree): degraded
        # reads on it are unanswerable and enter the backoff schedule.
        assert kv.resident_value(b"ov-target") == (False, None)
        kv.oram._quarantine(0)
        reqs = shifted(stack, [
            Request(rid=0, op=GET, key=b"ov-fill11", arrival_ns=0.0),
            Request(rid=1, op=GET, key=b"ov-target", arrival_ns=50.0),
            Request(rid=2, op=PUT, key=b"ov-target", value=b"new",
                    arrival_ns=15_000.0),
        ])
        result = resilient_replay(
            stack, reqs, scheduler_for(stack),
            ResilienceConfig(
                retry_budget=6, backoff_base_ns=30_000.0,
                repair_ns=10_000.0,
            ),
        )
        comps = by_rid(result.completions)
        # The put arrives after the repair but before the read's backoff
        # would have expired: FIFO requires the older read still see the
        # pre-put value.
        assert comps[1].status == OK and comps[1].value == b"old"
        assert comps[2].status == OK
        check_per_key_fifo(reqs, result.completions, dict(items))

    def test_unanswerable_read_fails_after_retry_budget(self):
        items = [(b"rx%d" % i, b"val%d" % i) for i in range(24)]
        stack = sealed_stack(items)
        kv = stack.kv
        # Find a key whose chain lives in the tree, not the stash --
        # a degraded server cannot answer it without an access.
        cold = [k for k, _ in items if kv.resident_value(k) == (False, None)]
        assert cold, "population never evicted anything; grow the set"
        target = cold[-1]
        kv.oram._quarantine(0)
        reqs = [
            Request(rid=0, op=GET, key=b"rx0", arrival_ns=0.0),
            Request(rid=1, op=GET, key=target, arrival_ns=50.0),
        ]
        result = resilient_replay(
            stack, shifted(stack, reqs), scheduler_for(stack),
            ResilienceConfig(
                retry_budget=2, backoff_base_ns=1_000.0,
                repair_ns=50_000_000.0,   # repair far beyond the retries
            ),
        )
        comps = by_rid(result.completions)
        assert comps[1].status == FAILED
        assert result.retries == 2


# --------------------------------------- per-key FIFO property (hypothesis)

FIFO_KEYS = [b"fk%d" % i for i in range(4)]
#: The two workload keys are populated *first*, then buried under
#: filler traffic so their chains get evicted into the tree: degraded
#: reads on them are genuinely unanswerable and take the retry path.
FIFO_INITIAL = [(FIFO_KEYS[0], b"init0"), (FIFO_KEYS[1], b"init1")]
FIFO_FILLER = [(b"fill%d" % i, b"fv%d" % i) for i in range(12)]

fifo_ops = st.one_of(
    st.tuples(st.just(GET), st.sampled_from(FIFO_KEYS)),
    st.tuples(st.just(PUT), st.sampled_from(FIFO_KEYS)),
    st.tuples(st.just(DELETE), st.sampled_from(FIFO_KEYS)),
)

fifo_rcfgs = st.builds(
    ResilienceConfig,
    deadline_ns=st.sampled_from([0.0, 300_000.0]),
    queue_limit=st.sampled_from([0, 4]),
    shed_policy=st.sampled_from(["reject-new", "drop-oldest"]),
    retry_budget=st.sampled_from([2, 6]),
    backoff_base_ns=st.just(4_000.0),
    journal_limit=st.sampled_from([1, 8]),
    repair_ns=st.just(20_000.0),
)


def check_per_key_fifo(requests, completions, initial):
    """Every served answer equals the serial-replay answer.

    Replays the *served* operations (``TIMED_OUT``/``SHED``/``FAILED``
    have no store effect) in arrival order against a dict reference;
    every ok get must return exactly the reference value, no matter how
    the loop crossed in and out of degraded mode.
    """
    reqs = {r.rid: r for r in requests}
    assert len(completions) == len(requests)
    assert {c.rid for c in completions} == set(reqs)
    store = dict(initial)
    for c in sorted(completions, key=lambda c: (c.arrival_ns, c.rid)):
        assert c.status in STATUSES
        if c.status != OK:
            assert c.accesses == 0
            continue
        req = reqs[c.rid]
        if req.op == PUT:
            store[req.key] = req.value
        elif req.op == DELETE:
            store.pop(req.key, None)
        else:
            expected = store.get(req.key)
            assert c.value == expected, (
                f"rid {c.rid} read {c.value!r}, serial replay says "
                f"{expected!r} (degraded={c.degraded})"
            )
            assert c.ok == (expected is not None)


class TestPerKeyFifoUnderChaos:
    @given(
        raw=st.lists(fifo_ops, min_size=10, max_size=18),
        gaps=st.lists(st.integers(1, 3_000), min_size=18, max_size=18),
        triggers=st.sets(st.integers(1, 5), min_size=1, max_size=2),
        rcfg=fifo_rcfgs,
        max_batch=st.sampled_from([2, 4]),
    )
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fifo_across_degraded_entry_and_exit(
        self, raw, gaps, triggers, rcfg, max_batch
    ):
        stack = sealed_stack(FIFO_INITIAL + FIFO_FILLER)
        oram = stack.kv.oram
        scheduler = scheduler_for(stack)
        # Deterministic chaos: quarantine a bucket after the N-th served
        # batch -- the loop enters degraded mode exactly there. Journal
        # replay also runs through serve_batch, so a trigger landing on
        # it exercises immediate re-entry after a repair.
        batches = {"n": 0}
        orig = scheduler.serve_batch

        def chaotic_serve(batch):
            out = orig(batch)
            batches["n"] += 1
            if batches["n"] in triggers:
                oram._quarantine(0)
            return out

        scheduler.serve_batch = chaotic_serve
        t = 0.0
        requests = []
        for i, (op, key) in enumerate(raw):
            t += gaps[i]
            requests.append(Request(
                rid=i, op=op, key=key,
                value=b"v%d" % i if op == PUT else None,
                arrival_ns=t,
            ))
        requests = shifted(stack, requests)
        result = resilient_replay(
            stack, requests, scheduler, rcfg, max_batch=max_batch,
        )
        if any(n <= batches["n"] for n in triggers):
            assert result.episodes, "quarantine fired but no episode ran"
        check_per_key_fifo(requests, result.completions, dict(FIFO_INITIAL))
        assert oram.quarantine_pending == 0


# --------------------------------------------------- chaos report machinery

def _mini_workload(name):
    return WorkloadConfig(
        name=name, n_requests=40, n_keys=200, stored_keys=12,
        arrival="poisson", rate_rps=1_000_000.0, zipf_s=0.9,
        read_fraction=0.75, delete_fraction=0.05, value_bytes=24,
        expect_dedup=False,
    )


def _mini_config(**overrides):
    cells = (
        ChaosCell(
            name="mini-base",
            workload=_mini_workload("mini-mix"),
            faults=None,
            resilience=ResilienceConfig(),
            min_availability=1.0,
        ),
        ChaosCell(
            name="mini-tamper",
            workload=_mini_workload("mini-mix"),
            faults=FaultPlan(seed=7, rates={"bit_flip": 0.01}),
            resilience=ResilienceConfig(
                deadline_ns=4_000_000.0, queue_limit=64, retry_budget=6,
                backoff_base_ns=5_000.0, backoff_factor=1.6,
                journal_limit=32, repair_ns=30_000.0,
            ),
        ),
    )
    base = ChaosConfig(levels=LEVELS, cells=cells, smoke=True)
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


@pytest.fixture(scope="module")
def mini_chaos_doc():
    return run_chaos(_mini_config())


class TestChaosReport:
    def test_schema_valid_and_gate_clean(self, mini_chaos_doc):
        assert mini_chaos_doc["kind"] == CHAOS.kind
        assert validate_chaos_report(mini_chaos_doc) == []
        assert chaos_check(mini_chaos_doc) == []

    def test_deterministic_across_runs(self, mini_chaos_doc):
        again = run_chaos(_mini_config())
        assert (CHAOS.deterministic_bytes(mini_chaos_doc)
                == CHAOS.deterministic_bytes(again))

    def test_status_accounting(self, mini_chaos_doc):
        for cell in mini_chaos_doc["cells"]:
            sim = cell["sim"]
            assert sum(sim["status"].values()) == sim["completions"]
            assert sim["completions"] == sim["requests"]
            assert 0.0 <= sim["availability"] <= 1.0

    def test_schema_rejects_status_mismatch(self, mini_chaos_doc):
        doc = copy.deepcopy(mini_chaos_doc)
        doc["cells"][0]["sim"]["status"]["ok"] += 1
        assert any("status" in e for e in validate_chaos_report(doc))

    def test_schema_rejects_completion_mismatch(self, mini_chaos_doc):
        doc = copy.deepcopy(mini_chaos_doc)
        doc["cells"][0]["sim"]["completions"] += 1
        assert validate_chaos_report(doc)

    def test_schema_rejects_bad_availability(self, mini_chaos_doc):
        doc = copy.deepcopy(mini_chaos_doc)
        doc["cells"][0]["sim"]["availability"] = 1.5
        assert validate_chaos_report(doc)

    def test_schema_rejects_duplicate_cells(self, mini_chaos_doc):
        doc = copy.deepcopy(mini_chaos_doc)
        doc["cells"].append(copy.deepcopy(doc["cells"][0]))
        assert any("duplicate" in e for e in validate_chaos_report(doc))


class TestChaosAttackers:
    """A chaos shard runs the guessing attacker only where its cell
    keeps the ``security`` block: an unsharded cell."""

    @staticmethod
    def _count_attackers(monkeypatch):
        import repro.serve.stack as stack_mod
        built = []
        real = stack_mod.GuessingAttacker

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(stack_mod, "GuessingAttacker", counting)
        return built

    def test_unsharded_cell_runs_one_and_keeps_its_block(self, monkeypatch):
        built = self._count_attackers(monkeypatch)
        doc = run_chaos(_mini_config())
        assert len(built) == len(doc["cells"]) == 2
        assert all("security" in cell["sim"] for cell in doc["cells"])

    def test_sharded_cells_build_none(self, monkeypatch):
        built = self._count_attackers(monkeypatch)
        doc = run_chaos(_mini_config(num_shards=2))
        assert built == []
        assert not any("security" in cell["sim"] for cell in doc["cells"])


class TestChaosConfig:
    @pytest.mark.parametrize("kw", [
        dict(num_shards=0),
        dict(num_shards=-2),
        dict(slo_out="slo.jsonl"),
        dict(ops_out="ops.jsonl"),
    ], ids=["zero-shards", "negative-shards", "slo-one-shard",
            "ops-one-shard"])
    def test_config_refuses_itself(self, kw):
        # Any caller, not just the CLI: the config checks itself.
        with pytest.raises(ValueError, match="--shards"):
            ChaosConfig(**kw)


class TestChaosCheck:
    def test_availability_floor(self, mini_chaos_doc):
        doc = copy.deepcopy(mini_chaos_doc)
        doc["cells"][0]["sim"]["availability"] = 0.5
        assert any("below floor" in p for p in chaos_check(doc))

    def test_detection_gap(self, mini_chaos_doc):
        doc = copy.deepcopy(mini_chaos_doc)
        doc["cells"][1]["sim"]["detection"] = {
            "tamper_injected": 2, "tamper_detected": 1, "rate": 0.5,
        }
        assert any("detection gap" in p for p in chaos_check(doc))

    def test_expected_faults_must_fire(self, mini_chaos_doc):
        doc = copy.deepcopy(mini_chaos_doc)
        doc["config"]["cells"][1]["expect_faults"] = True
        sim = doc["cells"][1]["sim"]
        sim["faults"]["injected"] = {
            k: 0 for k in sim["faults"]["injected"]
        }
        assert any("none fired" in p for p in chaos_check(doc))

    def test_expected_episodes_must_occur(self, mini_chaos_doc):
        doc = copy.deepcopy(mini_chaos_doc)
        doc["config"]["cells"][0]["expect_episodes"] = True
        assert any("episodes" in p for p in chaos_check(doc))

    def test_errored_cell_is_a_finding(self, mini_chaos_doc):
        doc = copy.deepcopy(mini_chaos_doc)
        doc["cells"][0] = {"name": "mini-base", "error": "boom"}
        assert any("errored" in p for p in chaos_check(doc))


class TestChaosCompare:
    def test_identical_reports_pass(self, mini_chaos_doc):
        code, messages = CHAOS.compare(
            mini_chaos_doc, mini_chaos_doc,
        )
        assert code == EXIT_OK
        assert all(m.startswith("OK") for m in messages)

    def test_availability_drop_regresses(self, mini_chaos_doc):
        new = copy.deepcopy(mini_chaos_doc)
        new["cells"][0]["sim"]["availability"] -= 0.05
        code, messages = CHAOS.compare(mini_chaos_doc, new)
        assert code == EXIT_REGRESSION
        assert any("availability drop" in m for m in messages)

    def test_p99_rise_regresses(self, mini_chaos_doc):
        new = copy.deepcopy(mini_chaos_doc)
        sim = new["cells"][0]["sim"]
        sim["latency_ns"]["p99"] *= 2.0
        code, messages = CHAOS.compare(mini_chaos_doc, new)
        assert code == EXIT_REGRESSION
        assert any("p99-under-fault" in m for m in messages)

    def test_detection_fall_regresses(self, mini_chaos_doc):
        new = copy.deepcopy(mini_chaos_doc)
        new["cells"][1]["sim"]["detection"] = {
            "tamper_injected": 2, "tamper_detected": 1, "rate": 0.5,
        }
        code, messages = CHAOS.compare(mini_chaos_doc, new)
        assert code == EXIT_REGRESSION
        assert any("detection fell" in m for m in messages)

    def test_errored_cell_is_an_error(self, mini_chaos_doc):
        new = copy.deepcopy(mini_chaos_doc)
        new["cells"][1] = {"name": "mini-tamper", "error": "worker died"}
        code, messages = CHAOS.compare(mini_chaos_doc, new)
        assert code == EXIT_ERROR
        assert any("errored in new report" in m for m in messages)

    def test_missing_cell_is_an_error(self, mini_chaos_doc):
        new = copy.deepcopy(mini_chaos_doc)
        del new["cells"][1]
        code, messages = CHAOS.compare(mini_chaos_doc, new)
        assert code == EXIT_ERROR
        assert any("missing" in m for m in messages)

    def test_compare_files_kind_dispatch(self, mini_chaos_doc, tmp_path):
        import json
        base = tmp_path / "base.json"
        new = tmp_path / "new.json"
        base.write_text(json.dumps(mini_chaos_doc))
        new.write_text(json.dumps(mini_chaos_doc))
        code, _ = compare_files(str(base), str(new))
        assert code == EXIT_OK
        # A mutated kind must never silently take the wrong gate.
        broken = copy.deepcopy(mini_chaos_doc)
        broken["kind"] = "repro-serve-report"
        new.write_text(json.dumps(broken))
        code, messages = compare_files(str(base), str(new))
        assert code == EXIT_ERROR


class TestChaosCli:
    def test_serve_chaos_writes_report(
        self, mini_chaos_doc, tmp_path, monkeypatch, capsys
    ):
        import json
        import repro.serve.chaos as chaos_mod
        from repro import cli

        def mini_factory(**overrides):
            overrides.pop("progress", None)
            overrides.pop("workers", None)
            return _mini_config(**overrides)

        monkeypatch.setattr(chaos_mod, "smoke_config", mini_factory)
        out = tmp_path / "BENCH_chaos.json"
        rc = cli.main([
            "serve", "chaos", "--smoke", "--out", str(out),
            "--require-detection",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == CHAOS.kind
        assert validate_chaos_report(doc) == []
        captured = capsys.readouterr()
        assert "chaos campaign" in captured.out
        assert "chaos check" in captured.out


# ------------------------------------------------------- KVServer.close fix

class _BrokenPop(dict):
    """A futures table whose pop always explodes: kills the serve loop."""

    def pop(self, *args, **kwargs):
        raise RuntimeError("futures table corrupted")


class TestServerCloseBounded:
    def test_dead_loop_fails_pending_and_close_returns(self):
        stack = plain_stack([(b"sk", b"sv")])
        server = KVServer(stack.kv)
        with server._work:
            server._futures = _BrokenPop(server._futures)
        future = server.submit(GET, b"sk")
        with pytest.raises(RuntimeError, match="corrupted"):
            future.result(timeout=10)
        # The death is recorded: new submissions refuse immediately.
        with pytest.raises(RuntimeError, match="serve loop died"):
            server.submit(GET, b"sk")
        t0 = time.perf_counter()
        server.close()
        assert time.perf_counter() - t0 < 5.0

    def test_wedged_loop_close_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.serve.server.JOIN_TIMEOUT_S", 0.3)
        stack = plain_stack([(b"sk", b"sv")])
        server = KVServer(stack.kv)

        def wedge(batch):
            time.sleep(3.0)
            return []

        server.scheduler.serve_batch = wedge
        future = server.submit(GET, b"sk")
        t0 = time.perf_counter()
        server.close()
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.5
        with pytest.raises(RuntimeError, match="unresponsive"):
            future.result(timeout=1)


# ------------------------------------------------------ recovery telemetry

class TestRecoveryTelemetry:
    def test_simulation_record_carries_recovery_fields(self):
        from repro.core import schemes as schemes_mod
        from repro.sim.engine import SimConfig, Simulation
        from repro.sim.runner import make_trace
        scheme = schemes_mod.by_name("ring", 7)
        trace = make_trace("spec", "mcf", scheme.n_real_blocks, 20, seed=0)
        sim = Simulation(scheme, trace, SimConfig(
            seed=0, robustness=RobustnessConfig(integrity=True),
        ))
        sim.run()
        record = sim.telemetry_record()
        assert "recovery" in record
        assert "retries" in record["recovery"]
        assert "dram_stalled_ns" in record
