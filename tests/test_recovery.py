"""Tests for the recovery ladder (retry -> quarantine -> rebuild)."""

import pytest

from repro.core import schemes as schemes_mod
from repro.faults.plan import FaultPlan
from repro.oram import recovery, ring
from repro.oram.recovery import RobustnessConfig, TransientBackendError
from repro.sim.engine import SimConfig, Simulation
from repro.sim.runner import make_trace


def _run(robustness, kind=None, rate=0.01, levels=7, requests=150, **plan_kw):
    scheme = schemes_mod.by_name("ring", levels)
    trace = make_trace("spec", "mcf", scheme.n_real_blocks, requests, seed=0)
    plan = (
        FaultPlan(seed=0, rates={kind: rate}, **plan_kw)
        if kind else None
    )
    sim = SimConfig(seed=0, robustness=robustness, fault_plan=plan,
                    check_invariants=True)
    return Simulation(scheme, trace, sim).run()


class TestRobustnessConfig:
    def test_defaults_valid(self):
        RobustnessConfig()

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RobustnessConfig(retry_budget=-1)

    def test_roundtrip(self):
        cfg = RobustnessConfig(integrity=True, retry_budget=5)
        doc = cfg.to_dict()
        assert doc.pop("verify_paths") is True
        assert doc.pop("quarantine") is True
        assert doc.pop("backoff_base_ns") == recovery.BACKOFF_BASE_NS
        assert doc.pop("backoff_factor") == recovery.BACKOFF_FACTOR
        assert RobustnessConfig(**doc) == cfg


class TestTransientRecovery:
    def test_retries_drain_outages(self):
        result = _run(RobustnessConfig(integrity=True), "unavailable")
        c = result.robustness["counters"]
        assert c["transient_faults"] > 0
        assert c["retries"] >= c["transient_faults"]
        assert c["transient_recovered"] > 0
        assert c["retry_exhausted"] == 0
        assert c["unrecovered"] == 0

    def test_backoff_costs_simulated_time(self, monkeypatch):
        monkeypatch.setattr(ring, "BACKOFF_BASE_NS", 50_000.0)
        slow = _run(RobustnessConfig(integrity=True), "unavailable")
        monkeypatch.setattr(ring, "BACKOFF_BASE_NS", 1.0)
        fast = _run(RobustnessConfig(integrity=True), "unavailable")
        assert (slow.robustness["counters"]["retries"]
                == fast.robustness["counters"]["retries"])
        assert slow.exec_ns > fast.exec_ns
        assert (slow.robustness["backoff_stalled_ns"]
                > fast.robustness["backoff_stalled_ns"] > 0)

    def test_zero_budget_escalates_to_quarantine(self):
        result = _run(
            RobustnessConfig(integrity=True, retry_budget=0),
            "unavailable",
        )
        c = result.robustness["counters"]
        assert c["retry_exhausted"] == c["transient_faults"] > 0
        assert c["transient_recovered"] == 0
        assert c["rebuilds"] > 0
        assert c["unrecovered"] == 0  # quarantine still recovers them


class TestQuarantineRebuild:
    def test_corruption_is_rebuilt(self):
        result = _run(RobustnessConfig(integrity=True), "bit_flip")
        c = result.robustness["counters"]
        assert c["auth_failures"] > 0
        assert c["quarantines"] > 0
        assert c["rebuilds"] == c["quarantines"]  # all drained by run end
        assert c["recovered"] >= c["rebuilds"]
        assert c["unrecovered"] == 0

    def test_replay_damage_is_repaired(self):
        """A rebuild reseals the bucket, re-pinning the on-chip root, so
        the simulation finishes despite every replay being detected."""
        result = _run(RobustnessConfig(integrity=True), "replay")
        c = result.robustness["counters"]
        assert c["integrity_failures"] > 0
        assert c["rebuilds"] > 0
        assert c["unrecovered"] == 0
        f = result.robustness["faults"]
        assert f["undetected"]["replay"] == 0

    def test_fault_free_run_counts_nothing(self):
        result = _run(RobustnessConfig(integrity=True))
        c = result.robustness["counters"]
        assert all(v == 0 for v in c.values())


class TestOptOut:
    def test_without_policy_faults_propagate(self):
        """No robustness policy means no recovery ladder at all: the
        injected fault's error reaches the caller untouched (the legacy
        tamper-propagation behaviour)."""
        from conftest import tiny_config

        from repro.core.ab_oram import build_oram
        from repro.crypto.auth import AuthenticationError
        from repro.faults.memory import FaultyMemory
        from repro.oram.datastore import EncryptedTreeStore

        cfg = tiny_config()
        store = EncryptedTreeStore(cfg, b"test master key.", seed=1)
        mem = FaultyMemory(store, FaultPlan(seed=0, rates={"bit_flip": 1.0}))
        oram = build_oram(cfg, seed=0, datastore=mem)  # no robustness
        oram.warm_fill()
        mem.armed = True
        with pytest.raises(AuthenticationError):
            for block in range(20):
                oram.access(block)

    def test_transient_error_is_runtime_error(self):
        assert issubclass(TransientBackendError, RuntimeError)
