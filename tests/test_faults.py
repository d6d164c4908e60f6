"""Tests for the fault-injection harness (repro.faults)."""

import copy
import dataclasses
import json

import pytest

from conftest import tiny_config

from repro.core import schemes as schemes_mod
from repro.crypto.auth import AuthenticationError
from repro.crypto.integrity import IntegrityError
from repro.faults.campaign import (
    CampaignConfig,
    run_campaign,
    smoke_config,
)
from repro.faults.memory import FaultyMemory
from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.faults.schema import cell_key, render_report, validate_report
from repro.oram.datastore import EncryptedTreeStore, pad_block
from repro.oram.recovery import RobustnessConfig, TransientBackendError
from repro.sim.engine import SimConfig, Simulation
from repro.sim.runner import make_trace

KEY = b"test master key."


def _store(with_integrity=True):
    return EncryptedTreeStore(tiny_config(), KEY, seed=1,
                              with_integrity=with_integrity)


def _only(plan_kind, rate=1.0, **kw):
    return FaultPlan(seed=0, rates={plan_kind: rate}, **kw)


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
        picks_a = [a.pick_open_fault(op, 5, 1) for op in range(200)]
        picks_b = [b.pick_open_fault(op, 5, 1) for op in range(200)]
        assert picks_a == picks_b
        assert "bit_flip" in picks_a  # the rate actually fires

    def test_seed_changes_draws(self):
        a = FaultPlan(seed=0, rates={"bit_flip": 0.3})
        b = FaultPlan(seed=1, rates={"bit_flip": 0.3})
        assert (
            [a.pick_open_fault(op, 5, 1) for op in range(200)]
            != [b.pick_open_fault(op, 5, 1) for op in range(200)]
        )

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(rates={"bit_flip": 0.0})
        assert not plan.any_enabled
        assert all(
            plan.pick_open_fault(op, b, s) is None
            for op in range(50) for b in range(4) for s in range(4)
        )

    def test_start_op_suppresses_early_faults(self):
        plan = FaultPlan(rates={"bit_flip": 1.0}, start_op=10)
        assert plan.pick_open_fault(9, 0, 0) is None
        assert plan.pick_open_fault(10, 0, 0) == "bit_flip"

    def test_roundtrip(self):
        plan = FaultPlan(seed=3, rates={"replay": 0.25}, start_op=5,
                         max_outage_ops=4)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

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
        mem = FaultyMemory(_store(), _only("bit_flip"))
        for slot in range(3):
            mem.seal_slot(3, slot, b"payload")
            with pytest.raises(AuthenticationError):
                mem.open_slot(3, slot)
        assert mem.injected["bit_flip"] == 3
        assert mem.detected["bit_flip"] == 3
        assert mem.undetected["bit_flip"] == 0

    def test_replay_always_detected_with_integrity(self):
        mem = FaultyMemory(_store(), _only("replay"))
        mem.seal_slot(3, 1, b"v1")
        mem.seal_slot(3, 1, b"v2")  # history now holds the v1 triple
        with pytest.raises(IntegrityError):
            mem.open_slot(3, 1)
        assert mem.injected["replay"] == 1
        assert mem.detected["replay"] == 1
        assert mem.undetected["replay"] == 0

    def test_replay_undetected_without_integrity(self):
        mem = FaultyMemory(_store(with_integrity=False), _only("replay"))
        mem.seal_slot(3, 1, b"v1")
        mem.seal_slot(3, 1, b"v2")
        value = mem.open_slot(3, 1)  # the stale plaintext comes back
        assert value == pad_block(b"v1", 64)
        assert mem.undetected["replay"] == 1
        assert mem.detected["replay"] == 0

    def test_dropped_write_detected_on_next_read(self):
        mem = FaultyMemory(_store(), _only("dropped_write"))
        mem.seal_slot(3, 1, b"v1")
        mem.seal_slot(3, 1, b"v2")  # this write is dropped
        assert mem.latent_drops == 1
        with pytest.raises((AuthenticationError, IntegrityError)):
            mem.open_slot(3, 1)
        assert mem.detected["dropped_write"] == 1
        assert mem.latent_drops == 0

    def test_dropped_write_masked_by_reseal(self):
        plan = FaultPlan(seed=0, rates={"dropped_write": 1.0}, start_op=2)
        mem = FaultyMemory(_store(), plan)
        mem.seal_slot(3, 1, b"v1")   # op 0: clean
        mem.seal_slot(3, 1, b"v2")   # op 1: clean (start_op)
        mem.seal_slot(3, 1, b"v3")   # op 2: dropped
        assert mem.latent_drops == 1
        plan_off = dataclasses.replace(plan, rates={})
        mem.plan = plan_off
        mem.seal_slot(3, 1, b"v4")   # overwrites the damage
        assert mem.latent_drops == 0
        assert mem.masked_drops == 1
        assert mem.open_slot(3, 1) == pad_block(b"v4", 64)
        assert mem.detected["dropped_write"] == 0

    def test_unavailable_raises_then_drains(self):
        mem = FaultyMemory(_store(), _only("unavailable", max_outage_ops=1))
        mem.seal_slot(3, 1, b"v1")
        with pytest.raises(TransientBackendError):
            mem.open_slot(3, 1)
        assert mem.injected["unavailable"] == 1
        assert mem.detected["unavailable"] == 1  # overt: the error IS it
        mem.plan = FaultPlan()  # outage over; the retry goes through
        assert mem.open_slot(3, 1) == pad_block(b"v1", 64)

    def test_disarmed_wrapper_injects_nothing(self):
        mem = FaultyMemory(_store(), _only("bit_flip"), armed=False)
        mem.seal_slot(3, 1, b"payload")
        assert mem.open_slot(3, 1) == pad_block(b"payload", 64)
        assert sum(mem.injected.values()) == 0

    def test_passthrough_delegates_queries(self):
        mem = FaultyMemory(_store(), FaultPlan())
        mem.seal_slot(3, 1, b"x")
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
        assert {"seal_slot", "seal_dummy", "seal_many",
                "open_slot", "open_many"} <= set(entry_points)
        missing = [n for n in entry_points if n not in vars(FaultyMemory)]
        assert not missing, f"FaultyMemory passes {missing} straight through"

    def test_open_many_injects_per_slot(self):
        mem = FaultyMemory(_store(), _only("bit_flip"))
        slots = [(3, 0), (3, 1), (4, 0)]
        mem.seal_many([(b, s, b"x") for b, s in slots])
        outcomes = list(mem.open_many(slots))
        assert all(isinstance(o, AuthenticationError) for o in outcomes)
        assert mem.injected["bit_flip"] == mem.detected["bit_flip"] == 3

    def test_open_many_is_lazy_so_retries_keep_their_op_index(self):
        """Each slot takes its op index when its outcome is asked for:
        a retry between two outcomes sits between them in the op
        sequence, as in a loop of scalar opens."""
        batch = FaultyMemory(_store(), _only("unavailable", max_outage_ops=1))
        scalar = FaultyMemory(_store(), _only("unavailable", max_outage_ops=1))
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
        mem = FaultyMemory(_store(), FaultPlan())
        s = mem.summary()
        assert set(s) == {"ops", "injected", "detected", "undetected",
                          "masked_drops", "latent_drops"}
        assert set(s["injected"]) == set(FAULT_KINDS)


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
        with pytest.raises(ValueError, match="unknown fault kinds"):
            CampaignConfig(kinds=("bit_rot",))
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
                                        kinds=("bit_flip",), rates=(0.02,)))
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
