"""Tests for crash-resumable simulation (repro.sim.checkpoint)."""

import pickle

import pytest

from conftest import sealed_store_state

from repro.core import schemes as schemes_mod
from repro.crypto import chacha
from repro.faults.plan import FaultPlan
from repro.oram.recovery import RobustnessConfig
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT, load_checkpoint, save_checkpoint,
)
from repro.sim.engine import SimConfig, Simulation
from repro.sim.runner import make_trace


def _fresh(requests=120, fault_plan=None, robustness=None, scheme="ring"):
    scheme = schemes_mod.by_name(scheme, 7)
    trace = make_trace("spec", "mcf", scheme.n_real_blocks, requests, seed=0)
    sim = SimConfig(seed=0, robustness=robustness, fault_plan=fault_plan)
    return Simulation(scheme, trace, sim)


class TestCheckpointRoundtrip:
    def test_resume_is_bit_identical(self, tmp_path):
        """Stop a run halfway, reload the checkpoint, finish: the result
        dict must equal the uninterrupted run's exactly."""
        baseline = _fresh().run()
        sim = _fresh()
        for _ in range(60):
            sim.step()
        path = tmp_path / "ck.pkl"
        save_checkpoint(sim, path)
        resumed = load_checkpoint(path)
        assert resumed.position == 60
        result = resumed.run()
        assert result.to_dict() == baseline.to_dict()

    def test_resume_with_faults_is_bit_identical(self, tmp_path):
        """The fault wrapper's ledgers (history, outstanding drops,
        outage state) ride inside the checkpoint too."""
        plan = FaultPlan(seed=0, rates={"bit_flip": 0.01})
        rcfg = RobustnessConfig(integrity=True)
        baseline = _fresh(fault_plan=plan, robustness=rcfg).run()
        sim = _fresh(fault_plan=plan, robustness=rcfg)
        for _ in range(50):
            sim.step()
        path = tmp_path / "ck.pkl"
        save_checkpoint(sim, path)
        result = load_checkpoint(path).run()
        assert result.to_dict() == baseline.to_dict()

    def test_sealed_store_rides_the_checkpoint_kernel_cache_does_not(
        self, tmp_path
    ):
        """A sealed, fault-armed ``ab`` run stopped mid-way: the flat
        tag table and the sealed mask come back byte for byte and the
        run finishes bit-identically, while the wide kernel's per-N
        constants -- module state -- are neither in the file nor needed
        from it."""
        plan = FaultPlan(
            seed=1, max_outage_ops=2,
            rates={"bit_flip": 0.01, "replay": 0.01, "unavailable": 0.02},
        )
        rcfg = RobustnessConfig(integrity=True)
        baseline = _fresh(fault_plan=plan, robustness=rcfg, scheme="ab").run()
        assert baseline.robustness["counters"]["rebuilds"] > 0
        sim = _fresh(fault_plan=plan, robustness=rcfg, scheme="ab")
        for _ in range(70):
            sim.step()
        # Rentals are live at the cut: the rented columns of the bucket
        # rows and the allocator's host table ride the file too.
        store, ext = sim.oram.store, sim.oram.ext
        assert ext.active_rentals() > 0
        assert (store.slots[:, store.z_max:] >= 0).any()
        assert chacha._wide_consts.cache_info().currsize > 0
        path = tmp_path / "ck.pkl"
        save_checkpoint(sim, path)
        lane_mask = b"\xff\xff\xff\xff\x00\x00\x00\x00"
        assert lane_mask * 3 not in path.read_bytes()
        chacha._wide_consts.cache_clear()
        resumed = load_checkpoint(path)
        assert sealed_store_state(resumed.datastore) == sealed_store_state(
            sim.datastore
        )
        assert resumed.faulty.summary() == sim.faulty.summary()
        assert (resumed.oram.store.slots == store.slots).all()
        assert (resumed.oram.ext.host_bucket == ext.host_bucket).all()
        assert (resumed.oram.ext.host_slot == ext.host_slot).all()
        assert resumed.oram.ext.n_active == ext.n_active
        assert resumed.run().to_dict() == baseline.to_dict()
        resumed.oram.check_invariants()

    def test_run_emits_periodic_checkpoints(self, tmp_path):
        path = tmp_path / "ck.pkl"
        sim = _fresh()
        sim.run(checkpoint_every=40, checkpoint_path=str(path))
        resumed = load_checkpoint(path)
        assert resumed.position == 80  # the last multiple of 40 before done

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint path"):
            _fresh().run(checkpoint_every=10)
        with pytest.raises(ValueError):
            _fresh().run(checkpoint_every=-1, checkpoint_path="x")


class TestCheckpointValidation:
    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"\x00\x01definitely not a pickle")
        with pytest.raises(ValueError, match="not a simulation checkpoint"):
            load_checkpoint(path)

    def test_wrong_payload_rejected(self, tmp_path):
        path = tmp_path / "other.pkl"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(ValueError, match="not a simulation checkpoint"):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        """A future format, format 1 (the sealed store's tags were a
        dict then), format 2 (rentals sat in a pooled side table, not
        in the bucket rows), format 3 (a controller without its
        per-hook observer lists) and format 4 (DeadQs as numpy ring
        buffers): the file would load and the run die later on a
        missing attribute."""
        for fmt in (99, 1, 2, 3, 4):
            assert fmt != CHECKPOINT_FORMAT
            path = tmp_path / f"format-{fmt}.pkl"
            path.write_bytes(pickle.dumps({
                "magic": "repro-sim-checkpoint", "format": fmt,
                "simulation": _fresh(requests=1),
            }))
            with pytest.raises(
                ValueError, match="unsupported checkpoint format"
            ):
                load_checkpoint(path)

    def test_non_simulation_payload_rejected(self, tmp_path):
        path = tmp_path / "shape.pkl"
        path.write_bytes(pickle.dumps({
            "magic": "repro-sim-checkpoint", "format": CHECKPOINT_FORMAT,
            "simulation": "not a Simulation",
        }))
        with pytest.raises(ValueError, match="expected Simulation"):
            load_checkpoint(path)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "ck.pkl"
        sim = _fresh()
        save_checkpoint(sim, path)
        assert path.exists()
        assert not (tmp_path / "ck.pkl.tmp").exists()


class TestInterruptedCampaignRun:
    def test_crash_mid_fault_campaign_resumes_byte_identical(self, tmp_path):
        """Kill a periodically-checkpointing fault-campaign run partway
        through (as a crash or ctrl-C would), resume from the file it
        left on disk, and require the finished result byte-identical to
        the uninterrupted run -- the ledger state a campaign cell is
        computed from (fault history, outage state, recovery counters)
        must all ride inside the checkpoint."""
        import json

        plan = FaultPlan(
            seed=3, rates={"bit_flip": 0.005, "unavailable": 0.01},
            max_outage_ops=2,
        )
        rcfg = RobustnessConfig(integrity=True, retry_budget=4)
        baseline = _fresh(fault_plan=plan, robustness=rcfg).run()

        sim = _fresh(fault_plan=plan, robustness=rcfg)
        path = tmp_path / "campaign-ck.pkl"
        # The checkpointing loop of Simulation.run, crashed partway
        # between two periodic saves.
        with pytest.raises(KeyboardInterrupt):
            while sim.step():
                if not sim.done and sim.position % 25 == 0:
                    save_checkpoint(sim, path)
                if sim.position > 77:
                    raise KeyboardInterrupt

        resumed = load_checkpoint(path)
        assert 0 < resumed.position < 120
        assert resumed.position % 25 == 0
        result = resumed.run()
        base_bytes = json.dumps(baseline.to_dict(), sort_keys=True).encode()
        res_bytes = json.dumps(result.to_dict(), sort_keys=True).encode()
        assert res_bytes == base_bytes
