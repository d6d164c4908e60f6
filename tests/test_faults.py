"""Tests for the fault-injection harness (repro.faults)."""

import copy
import dataclasses
import inspect
import json
import re
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RecordingSink, comparable_outcomes, sealed_store_state, tiny_config,
)

from repro.core import schemes as schemes_mod
from repro.core.remote import RemoteAllocator
from repro.crypto.auth import AuthenticationError
from repro.crypto.integrity import IntegrityError
from repro.faults.campaign import (
    CampaignConfig,
    run_campaign,
    smoke_config,
)
from repro.faults.memory import FaultyMemory
from repro.faults.plan import FAULT_KINDS, OPEN_KINDS, FaultPlan, strike
from repro.faults.schema import cell_key, render_report, validate_report
from repro.mem.layout import TreeLayout
from repro.oram.datastore import EncryptedTreeStore, pad_block
from repro.oram import ring as ring_mod
from repro.oram.recovery import RobustnessConfig, TransientBackendError
from repro.oram.ring import RingOram
from repro.oram.stats import OpKind
from repro.serve.loadgen import (
    WorkloadConfig, generate_requests, initial_items,
)
from repro.serve.replay import serve_slice
from repro.serve.resilience import ResilienceConfig
from repro.sim.engine import SimConfig, Simulation
from repro.sim.runner import make_trace

KEY = b"test master key."

#: What an open can come back as in place of a plaintext.
OPEN_FAILURES = (TransientBackendError, AuthenticationError, IntegrityError)


def _store(with_integrity=True):
    return EncryptedTreeStore(tiny_config(), KEY, seed=1,
                              with_integrity=with_integrity)


def _only(plan_kind, rate=1.0, **kw):
    return FaultPlan(seed=0, rates={plan_kind: rate}, **kw)


def _pick_open(plan, op, bucket, slot):
    """The open fault (if any) ``plan`` strikes this op with."""
    return strike(plan.primed(OPEN_KINDS), op, bucket, slot)


def _armed(store, plan):
    """A fault wrapper injecting from its first operation."""
    mem = FaultyMemory(store, plan)
    mem.armed = True
    return mem


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(rates={"cosmic_ray": 0.1})

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(rates={"bit_flip": 1.5})

    def test_outage_floor_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(max_outage_ops=0)

    def test_draws_are_deterministic(self):
        a = FaultPlan(seed=7, rates={"bit_flip": 0.3})
        b = FaultPlan(seed=7, rates={"bit_flip": 0.3})
        picks_a = [_pick_open(a, op, 5, 1) for op in range(200)]
        picks_b = [_pick_open(b, op, 5, 1) for op in range(200)]
        assert picks_a == picks_b
        assert "bit_flip" in picks_a  # the rate actually fires

    def test_seed_changes_draws(self):
        a = FaultPlan(seed=0, rates={"bit_flip": 0.3})
        b = FaultPlan(seed=1, rates={"bit_flip": 0.3})
        assert (
            [_pick_open(a, op, 5, 1) for op in range(200)]
            != [_pick_open(b, op, 5, 1) for op in range(200)]
        )

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(rates={"bit_flip": 0.0})
        assert all(
            _pick_open(plan, op, b, s) is None
            for op in range(50) for b in range(4) for s in range(4)
        )

    def test_roundtrip(self):
        plan = FaultPlan(seed=3, rates={"replay": 0.25}, max_outage_ops=4)
        doc = plan.to_dict()
        assert doc.pop("start_op") == 0
        assert FaultPlan(**doc) == plan

    def test_flip_byte_in_range(self):
        plan = _only("bit_flip")
        assert all(0 <= plan.flip_byte(op, 1, 2, 64) < 64
                   for op in range(100))

    def test_outage_ops_bounded(self):
        plan = FaultPlan(max_outage_ops=3)
        lens = {plan.outage_ops(op, 0, 0) for op in range(200)}
        assert lens <= {1, 2, 3}
        assert len(lens) > 1


class TestFaultyMemoryDetection:
    def test_bit_flip_always_detected(self):
        mem = _armed(_store(), _only("bit_flip"))
        for slot in range(3):
            mem.seal_many([(3, slot, b"payload")])
            with pytest.raises(AuthenticationError):
                mem.open_slot(3, slot)
        assert mem.injected["bit_flip"] == 3
        assert mem.detected["bit_flip"] == 3
        assert mem.undetected["bit_flip"] == 0

    def test_replay_always_detected_with_integrity(self):
        mem = _armed(_store(), _only("replay"))
        mem.seal_many([(3, 1, b"v1")])
        mem.seal_many([(3, 1, b"v2")])  # history now holds the v1 triple
        with pytest.raises(IntegrityError):
            mem.open_slot(3, 1)
        assert mem.injected["replay"] == 1
        assert mem.detected["replay"] == 1
        assert mem.undetected["replay"] == 0

    def test_replay_restores_the_triple_the_slot_held(self):
        """The replay ammunition is the slot's off-chip triple as it
        stood before the reseal -- its bytes at ``TreeLayout.first_byte``,
        its tag in the flat table, its version -- and the replay writes
        exactly that back."""
        store = _store()
        mem = _armed(store, _only("replay"))
        addr = int(TreeLayout(store.cfg).first_byte[3]) + 64
        i = 3 * store.cfg.z_max + 1

        def triple():
            return (bytes(store._memory[addr:addr + 64]),
                    bytes(store._tags[i * 8:(i + 1) * 8]),
                    int(store._version[3, 1]))

        mem.seal_many([(3, 1, b"v1")])
        old = triple()
        mem.seal_many([(3, 1, b"v2")])
        assert triple() != old
        ammo = store.previous(3, 1)
        assert (ammo.ciphertext, ammo.tag, ammo.version) == old
        with pytest.raises(IntegrityError):
            mem.open_slot(3, 1)
        assert triple() == old

    def test_replay_undetected_without_integrity(self):
        mem = _armed(_store(with_integrity=False), _only("replay"))
        mem.seal_many([(3, 1, b"v1")])
        mem.seal_many([(3, 1, b"v2")])
        value = mem.open_slot(3, 1)  # the stale plaintext comes back
        assert value == pad_block(b"v1", 64)
        assert mem.undetected["replay"] == 1
        assert mem.detected["replay"] == 0

    def test_dropped_write_detected_on_next_read(self):
        mem = _armed(_store(), _only("dropped_write"))
        mem.seal_many([(3, 1, b"v1")])
        mem.seal_many([(3, 1, b"v2")])  # this write is dropped
        assert mem.latent_drops == 1
        with pytest.raises((AuthenticationError, IntegrityError)):
            mem.open_slot(3, 1)
        assert mem.detected["dropped_write"] == 1
        assert mem.latent_drops == 0

    def test_dropped_write_masked_by_reseal(self):
        plan = FaultPlan(seed=0, rates={"dropped_write": 1.0})
        mem = _armed(_store(), FaultPlan())
        mem.seal_many([(3, 1, b"v1")])   # op 0: clean
        mem.seal_many([(3, 1, b"v2")])   # op 1: clean
        mem.plan = plan
        mem.seal_many([(3, 1, b"v3")])   # op 2: dropped
        assert mem.latent_drops == 1
        plan_off = dataclasses.replace(plan, rates={})
        mem.plan = plan_off
        mem.seal_many([(3, 1, b"v4")])   # overwrites the damage
        assert mem.latent_drops == 0
        assert mem.masked_drops == 1
        assert mem.open_slot(3, 1) == pad_block(b"v4", 64)
        assert mem.detected["dropped_write"] == 0

    def test_unavailable_raises_then_drains(self):
        mem = _armed(_store(), _only("unavailable", max_outage_ops=1))
        mem.seal_many([(3, 1, b"v1")])
        with pytest.raises(TransientBackendError):
            mem.open_slot(3, 1)
        assert mem.injected["unavailable"] == 1
        assert mem.detected["unavailable"] == 1  # overt: the error IS it
        mem.plan = FaultPlan()  # outage over; the retry goes through
        assert mem.open_slot(3, 1) == pad_block(b"v1", 64)

    def test_disarmed_wrapper_injects_nothing(self):
        mem = FaultyMemory(_store(), _only("bit_flip"))
        mem.seal_many([(3, 1, b"payload")])
        assert mem.open_slot(3, 1) == pad_block(b"payload", 64)
        assert sum(mem.injected.values()) == 0

    def test_passthrough_delegates_queries(self):
        mem = _armed(_store(), FaultPlan())
        mem.seal_many([(3, 1, b"x")])
        assert mem.seals == 1  # inner counter, via __getattr__
        with pytest.raises(AttributeError):
            mem._no_such_private  # noqa: B018 -- pickling relies on this

    def test_every_seal_and_open_entry_point_is_intercepted(self):
        """A seal/open method the store grows must be defined on the
        wrapper too: ``__getattr__`` would hand it to the inner store
        and the traffic through it would escape fault injection."""
        entry_points = [
            name for name, attr in vars(EncryptedTreeStore).items()
            if name.startswith(("seal_", "open_")) and callable(attr)
        ]
        assert {"seal_many", "open_slot", "open_many"} <= set(entry_points)
        missing = [n for n in entry_points if n not in vars(FaultyMemory)]
        assert not missing, f"FaultyMemory passes {missing} straight through"

    def test_open_many_injects_per_slot(self):
        mem = _armed(_store(), _only("bit_flip"))
        slots = [(3, 0), (3, 1), (4, 0)]
        mem.seal_many([(b, s, b"x") for b, s in slots])
        outcomes = list(mem.open_many(slots))
        assert all(isinstance(o, AuthenticationError) for o in outcomes)
        assert mem.injected["bit_flip"] == mem.detected["bit_flip"] == 3

    def test_open_many_is_lazy_so_retries_keep_their_op_index(self):
        """Each slot takes its op index when its outcome is asked for:
        a retry between two outcomes sits between them in the op
        sequence, as in a loop of scalar opens."""
        batch = _armed(_store(), _only("unavailable", max_outage_ops=1))
        scalar = _armed(_store(), _only("unavailable", max_outage_ops=1))
        slots = [(3, 0), (3, 1)]
        for mem in (batch, scalar):
            mem.seal_many([(b, s, b"x") for b, s in slots])
        outcomes = batch.open_many(slots)
        assert batch.op_index == 2          # nothing opened yet
        assert isinstance(next(outcomes), TransientBackendError)
        assert batch.op_index == 3
        with pytest.raises(TransientBackendError):
            batch.open_slot(3, 0)           # the caller's retry
        assert isinstance(next(outcomes), TransientBackendError)
        for b, s in ((3, 0), (3, 0), (3, 1)):
            with pytest.raises(TransientBackendError):
                scalar.open_slot(b, s)
        assert batch.summary() == scalar.summary()

    def test_summary_shape(self):
        mem = _armed(_store(), FaultPlan())
        s = mem.summary()
        assert set(s) == {"ops", "injected", "detected", "undetected",
                          "masked_drops", "latent_drops"}
        assert set(s["injected"]) == set(FAULT_KINDS)


class PerSlotFaultyMemory(FaultyMemory):
    """The wrapper as it was before it cut batches: ``seal_many`` seals
    item by item (a batch of one each) and
    ``open_many`` loops its scalar ``open_slot``. The reference the cut
    batches are held equal to."""

    def seal_many(self, items):
        for item in items:
            super().seal_many([item])

    def open_many(self, slots):
        for bucket, slot in slots:
            try:
                yield self.open_slot(bucket, slot)
            except OPEN_FAILURES as exc:
                yield exc


def _wrapper_state(mem):
    return {
        "store": sealed_store_state(mem.inner),
        "summary": mem.summary(),
        "op_index": mem.op_index,
        "ammunition": [
            mem.inner.previous(b, s)
            for b in range(mem.inner.cfg.n_buckets)
            for s in range(mem.inner.cfg.z_max)
        ],
        "drops": dict(mem._outstanding_drops),
        "outage": mem._outage,
    }


def _consume(mem, slots, retry_budget):
    """Drain ``open_many`` the way the controller does: a transient
    outcome is retried through ``open_slot`` before the next is asked
    for. A never-sealed slot ends the batch with the store's KeyError."""
    outcomes = []
    try:
        for (bucket, slot), outcome in zip(slots, mem.open_many(slots)):
            for _ in range(retry_budget):
                if not isinstance(outcome, TransientBackendError):
                    break
                try:
                    outcome = mem.open_slot(bucket, slot)
                except OPEN_FAILURES as exc:
                    outcome = exc
            outcomes.append(outcome)
    except KeyError as exc:
        outcomes.append(exc)
    return comparable_outcomes(outcomes)


def _play(mem, steps):
    """Run a script of batches against one wrapper; the state after
    every step (and what every open batch returned)."""
    trail = []
    for step in steps:
        if step[0] == "seal":
            mem.seal_many(step[1])
            trail.append(None)
        elif step[0] == "open":
            trail.append(_consume(mem, step[1], step[2]))
        else:
            mem.armed = step[1]
            trail.append(None)
        trail.append(_wrapper_state(mem))
    return trail


def _assert_cut_equals_per_slot(plan, steps, with_integrity=True, armed=True):
    cut = FaultyMemory(_store(with_integrity), plan)
    ref = PerSlotFaultyMemory(_store(with_integrity), plan)
    cut.armed = ref.armed = armed
    assert _play(cut, steps) == _play(ref, steps)


# A small corner of the tiny tree, so that a batch revisits slots (and
# buckets) and every slot collects history.
_SLOT = st.tuples(st.integers(0, 5), st.integers(0, 2))
_SEAL_STEP = st.tuples(
    st.just("seal"),
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2),
                  st.one_of(st.none(), st.binary(min_size=0, max_size=64))),
        max_size=24,
    ),
)
_OPEN_STEP = st.tuples(
    st.just("open"), st.lists(_SLOT, max_size=24), st.integers(0, 3),
)
_ARM_STEP = st.tuples(st.just("arm"), st.booleans())
_RATE = st.sampled_from([0.0, 0.02, 0.1, 0.3])


class TestCutBatchesEqualPerSlot:
    """``seal_many``/``open_many`` hand fault-free runs to the store's
    batches; everything observable must be what the per-slot loop
    leaves, after every batch."""

    @given(
        seed=st.integers(0, 2**16),
        rates=st.fixed_dictionaries({k: _RATE for k in FAULT_KINDS}),
        max_outage_ops=st.integers(1, 3),
        with_integrity=st.booleans(),
        armed=st.booleans(),
        steps=st.lists(st.one_of(_SEAL_STEP, _OPEN_STEP, _ARM_STEP),
                       min_size=1, max_size=10),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_scripts_of_batches(self, seed, rates, max_outage_ops,
                                with_integrity, armed, steps):
        plan = FaultPlan(seed=seed, rates=rates,
                         max_outage_ops=max_outage_ops)
        # Most of the corner starts sealed (bucket 5 does not), so
        # drawn opens mostly get past the never-sealed KeyError.
        _assert_cut_equals_per_slot(
            plan, [self._fill(b"fill")] + steps, with_integrity, armed
        )

    ALL = [(b, s) for b in range(5) for s in range(3)]

    def _fill(self, tag):
        return ("seal", [(b, s, b"%s-%d-%d" % (tag, b, s))
                         for b, s in self.ALL])

    @pytest.mark.parametrize("rate", [0.3, 1.0])
    def test_dropped_write_in_the_middle_of_a_bucket(self, rate):
        """The leaf is digested with the dropped write's tag, and
        re-digested with the stale one by the bucket's later seals."""
        plan = FaultPlan(seed=5, rates={"dropped_write": rate})
        _assert_cut_equals_per_slot(plan, [
            self._fill(b"a"), self._fill(b"b"), ("open", self.ALL, 0),
            self._fill(b"c"), ("open", self.ALL, 0),
        ])

    def test_slot_repeated_inside_a_seal_batch(self):
        """The repeat's ammunition is the first seal's triple, and only
        the repeat of a never-sealed slot can be dropped."""
        plan = FaultPlan(seed=1, rates={"dropped_write": 0.5, "replay": 0.3})
        twice = [(2, 1, b"first"), (3, 0, None), (2, 1, b"second"),
                 (2, 1, None), (3, 0, b"third")]
        _assert_cut_equals_per_slot(plan, [
            ("seal", twice), ("open", [(2, 1), (3, 0)], 0),
            ("seal", twice), ("open", [(2, 1), (3, 0)], 0),
        ])

    @pytest.mark.parametrize("with_integrity", [True, False])
    def test_slot_resealed_twice_in_one_batch_replays_the_middle_triple(
            self, with_integrity):
        """A slot resealed twice in one batch keeps, as ammunition, the
        triple its first reseal wrote: the image captures each run
        before the store writes it, and the repeat starts a run of its
        own. Replaying it serves that triple back."""
        plan = FaultPlan(seed=3, rates={"replay": 1.0})
        twice = [(2, 1, b"first"), (4, 0, None), (2, 1, b"second")]
        _assert_cut_equals_per_slot(plan, [
            self._fill(b"a"), ("seal", twice), ("open", [(2, 1)], 0),
        ], with_integrity)
        mem = _armed(_store(with_integrity), plan)
        mem.seal_many(self._fill(b"a")[1])
        mem.seal_many(twice)
        if with_integrity:
            with pytest.raises(IntegrityError):
                mem.open_slot(2, 1)
            assert mem.detected["replay"] == 1
        else:
            assert mem.open_slot(2, 1) == pad_block(b"first", 64)
            assert mem.undetected["replay"] == 1

    @pytest.mark.parametrize("retry_budget", [0, 1, 3])
    def test_outage_spanning_cuts_and_batches(self, retry_budget):
        """With fewer retries than the outage is long, the outage stays
        on its slot across the rest of the batch and into the next."""
        plan = FaultPlan(seed=3, rates={"unavailable": 0.2, "bit_flip": 0.1},
                         max_outage_ops=3)
        _assert_cut_equals_per_slot(plan, [
            self._fill(b"a"),
            ("open", self.ALL + self.ALL[::-1], retry_budget),
            ("open", self.ALL, retry_budget),
        ])

    def test_never_sealed_slot_fails_at_its_own_op(self):
        plan = FaultPlan(seed=2, rates={"bit_flip": 0.2})
        _assert_cut_equals_per_slot(plan, [
            ("seal", [(0, 0, b"x"), (0, 1, None)]),
            ("open", [(0, 0), (0, 1), (5, 2), (0, 0)], 0),
            ("open", [(0, 0)], 0),
        ])

    def test_whole_controller_under_a_mixed_plan(self, monkeypatch):
        """The resilient serving loop over a sealed ``ab`` stack: same
        completions, same ladder, same fault ledger either way."""
        workload = WorkloadConfig(
            name="cut-vs-per-slot", n_requests=150, stored_keys=40,
            read_fraction=0.6, seed=4,
        )

        def served():
            return serve_slice(
                initial_items(workload), generate_requests(workload),
                scheme="ab", levels=8, seed=2,
                fault_plan=FaultPlan(
                    seed=9, max_outage_ops=3,
                    rates={"bit_flip": 0.01, "replay": 0.01,
                           "dropped_write": 0.01, "unavailable": 0.02},
                ),
                resilience=ResilienceConfig(
                    deadline_ns=4e6, retry_budget=4, repair_ns=30_000.0,
                ),
            )

        cut = served()
        monkeypatch.setattr("repro.faults.memory.FaultyMemory",
                            PerSlotFaultyMemory)
        ref = served()
        faults = cut.counters["faults"]
        assert all(faults["injected"][k] > 0 for k in FAULT_KINDS)
        assert cut.counters["robust"]["counters"]["rebuilds"] > 0
        assert cut.result.completions == ref.result.completions
        assert cut.counters == ref.counters


class TestBatchesReachTheStore:
    def test_tamper_plan_leaves_batches_whole(self, monkeypatch):
        """Under the end-to-end benchmark's tamper plan what the
        controller hands over as a batch reaches the store as batches:
        a strike costs its batch one cut, not its batching."""
        workload = WorkloadConfig(
            name="batches-reach-the-store", n_requests=300, stored_keys=160,
            value_bytes=40, seed=1,
        )
        handed, arrived = [], []

        class CountingFaultyMemory(FaultyMemory):
            def seal_many(self, items):
                handed.append(len(items))
                super().seal_many(items)

            def open_many(self, slots):
                handed.append(len(slots))
                return super().open_many(slots)

        class SpyStore(EncryptedTreeStore):
            def seal_many(self, items):
                arrived.append(len(items))
                super().seal_many(items)

            def open_many(self, slots):
                arrived.append(len(slots))
                return super().open_many(slots)

        monkeypatch.setattr("repro.faults.memory.FaultyMemory",
                            CountingFaultyMemory)
        monkeypatch.setattr("repro.oram.datastore.EncryptedTreeStore",
                            SpyStore)
        served = serve_slice(
            initial_items(workload), generate_requests(workload),
            scheme="ab", levels=10, seed=0,
            fault_plan=FaultPlan(
                seed=202, rates={"bit_flip": 0.00075, "replay": 0.000625},
            ),
            resilience=ResilienceConfig(),
        )
        faults = served.counters["faults"]
        assert sum(faults["injected"].values()) > 0
        in_runs = sum(n for n in arrived if n > 1)
        assert in_runs >= 0.98 * sum(n for n in handed if n > 1)
        assert in_runs >= 0.97 * faults["ops"]


def _with_opens_inside_the_level_loop(method):
    """A controller method rebuilt from its source with each
    ``opens.append(item)`` turned into ``self._open_now(item)``: the
    list stays empty, so no batch follows the loop."""
    source, n = re.subn(
        r"\bopens\.append\(", "self._open_now(",
        textwrap.dedent(inspect.getsource(method)),
    )
    namespace = dict(vars(ring_mod))
    exec(compile(source, f"<per-level {method.__name__}>", "exec"), namespace)
    return namespace[method.__name__], n


class PerLevelOpenRingOram(RingOram):
    """readPath as it was before it batched its opens: every real block
    the read returns (the target, a green block, local or rented) is
    opened and admitted inside the level loop, at the bucket that
    holds it. The reference the batch is held equal to."""

    _read_path, _path_sites = _with_opens_inside_the_level_loop(
        RingOram._read_path)

    def _open_now(self, item):
        block, bucket, slot = item
        self._admit_payload(block, bucket, slot, self._try_open(bucket, slot))


class TestBatchedReadPathEqualsPerLevel:
    """readPath hands its opens over as one batch after the block pass;
    everything observable must be what per-level opens leave."""

    def test_reference_really_opens_per_level(self):
        # One block pass, one tail: target or green, local or rented.
        assert PerLevelOpenRingOram._path_sites == 1

    def _run(self, controller, batches=None):
        cfg = schemes_mod.by_name("ab", 8)

        class SpyFaultyMemory(FaultyMemory):
            def open_many(self, slots):
                if batches is not None:
                    batches.append(len(slots))
                return super().open_many(slots)

        mem = SpyFaultyMemory(
            EncryptedTreeStore(cfg, KEY, seed=3),
            FaultPlan(
                seed=11, max_outage_ops=4,
                rates={"bit_flip": 0.01, "replay": 0.01,
                       "dropped_write": 0.005, "unavailable": 0.04},
            ),
        )
        sink = RecordingSink()
        oram = controller(
            cfg, sink=sink, seed=7, extensions=RemoteAllocator(cfg),
            datastore=mem,
            robustness=RobustnessConfig(integrity=True, retry_budget=2),
        )
        quarantined = []
        quarantine = oram._quarantine
        oram._quarantine = lambda b: (quarantined.append(b), quarantine(b))
        oram.warm_fill()
        mem.armed = True
        rng = np.random.default_rng(5)
        answers = []
        for i in range(500):
            block = int(rng.integers(cfg.n_real_blocks))
            if i % 3 == 0:
                oram.write(block, b"v%d" % i)
            else:
                answers.append(oram.read(block))
        oram.flush_recovery()
        oram.check_invariants()
        return {
            "calls": sink.calls,
            "robust": oram.robust.to_dict(),
            "quarantined": quarantined,
            "faults": mem.summary(),
            "op_index": mem.op_index,
            "store": sealed_store_state(mem.inner),
            "stash_payload": dict(oram._stash_payload),
            "answers": answers,
        }

    def test_same_events_ladder_ledger_and_store(self):
        batches = []
        batched = self._run(RingOram, batches)
        per_level = self._run(PerLevelOpenRingOram)
        # The run has what the comparison is about: multi-slot readPath
        # batches, stalls inside path reads, every ladder rung.
        assert max(batches) > 1
        kinds = [
            args[0] if name == "begin_op" else name
            for name, args in batched["calls"]
            if name in ("begin_op", "stall")
        ]
        assert any(
            kind == "stall" and before == OpKind.READ_PATH
            for before, kind in zip(kinds, kinds[1:])
        )
        robust = batched["robust"]
        for counter in ("transient_recovered", "retry_exhausted",
                        "auth_failures", "integrity_failures", "rebuilds"):
            assert robust[counter] > 0, counter
        assert all(batched["faults"]["injected"][k] > 0 for k in FAULT_KINDS)
        for part in batched:
            assert batched[part] == per_level[part], part


class TestZeroRatePassthrough:
    def test_zero_rate_run_is_bit_identical(self):
        """A FaultyMemory with all rates zero must not perturb the
        simulation in any way -- same result, same RNG streams."""
        scheme = schemes_mod.by_name("ring", 7)
        trace = make_trace("spec", "mcf", scheme.n_real_blocks, 120, seed=0)
        rcfg = RobustnessConfig(integrity=True)
        plain = Simulation(
            scheme, trace, SimConfig(seed=0, robustness=rcfg)
        ).run()
        wrapped = Simulation(
            scheme, trace,
            SimConfig(seed=0, robustness=rcfg, fault_plan=FaultPlan()),
        ).run()
        a = plain.to_dict()
        b = wrapped.to_dict()
        # The wrapped run additionally reports the (all-zero) fault
        # ledger; everything else must match exactly.
        assert b["robustness"].pop("faults")["injected"] == {
            k: 0 for k in FAULT_KINDS
        }
        a["robustness"].pop("faults", None)
        assert a == b


class TestSimulatedDetection:
    @pytest.mark.parametrize("kind", ["bit_flip", "replay"])
    def test_tampering_faults_fully_detected(self, kind):
        scheme = schemes_mod.by_name("ring", 7)
        trace = make_trace("spec", "mcf", scheme.n_real_blocks, 150, seed=0)
        sim = SimConfig(
            seed=0,
            robustness=RobustnessConfig(integrity=True),
            fault_plan=FaultPlan(seed=0, rates={kind: 0.01}),
        )
        result = Simulation(scheme, trace, sim).run()
        faults = result.robustness["faults"]
        assert faults["injected"][kind] > 0
        assert faults["detected"][kind] == faults["injected"][kind]
        assert faults["undetected"][kind] == 0


class TestCampaign:
    @pytest.fixture(scope="class")
    def smoke_doc(self):
        return run_campaign(smoke_config(
            levels=7, n_requests=120, rates=(0.01,),
        ))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="rate"):
            CampaignConfig(rates=(2.0,))
        with pytest.raises(ValueError, match="at least one fault rate"):
            CampaignConfig(rates=())

    def test_report_validates(self, smoke_doc):
        assert validate_report(smoke_doc) == []

    def test_one_cell_per_kind_and_rate(self, smoke_doc):
        keys = [cell_key(c) for c in smoke_doc["cells"]]
        assert keys == [f"{k}@0.01" for k in FAULT_KINDS]

    def test_tampering_cells_fully_detected(self, smoke_doc):
        for cell in smoke_doc["cells"]:
            if cell["fault"] in ("bit_flip", "replay"):
                assert cell["detected"] == cell["injected"]
                assert cell["undetected"] == 0
                assert cell["detection_rate"] == 1.0

    def test_recovery_accounted(self, smoke_doc):
        for cell in smoke_doc["cells"]:
            assert cell["unrecovered"] == 0
            assert cell["recovery_rate"] == 1.0
            # Rebuilds reset bucket access counters, so a faulty run can
            # even come in slightly *under* baseline at tiny scales; the
            # ratio just has to be sane.
            assert 0.9 < cell["overhead_x"] < 2.0

    def test_json_roundtrip_and_determinism(self, smoke_doc):
        again = run_campaign(smoke_config(
            levels=7, n_requests=120, rates=(0.01,),
        ))
        assert json.dumps(smoke_doc, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_render_report(self, smoke_doc):
        text = render_report(smoke_doc)
        assert "fault campaign (smoke)" in text
        assert "bit_flip@0.01" in text


class TestSchema:
    def test_rejects_non_dict(self):
        assert validate_report([]) != []

    def test_rejects_wrong_kind(self):
        doc = run_campaign(smoke_config(levels=7, n_requests=60,
                                        rates=(0.02,)))
        bad = copy.deepcopy(doc)
        bad["kind"] = "something-else"
        assert any("kind" in e for e in validate_report(bad))
        bad = copy.deepcopy(doc)
        del bad["cells"][0]["detected"]
        assert any("missing field 'detected'" in e for e in validate_report(bad))
        bad = copy.deepcopy(doc)
        bad["cells"].append(copy.deepcopy(bad["cells"][0]))
        assert any("duplicate" in e for e in validate_report(bad))
        bad = copy.deepcopy(doc)
        bad["cells"][0]["detection_rate"] = 1.5
        assert any("detection_rate" in e for e in validate_report(bad))
