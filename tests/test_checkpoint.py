"""Tests for crash-resumable simulation (repro.sim.checkpoint)."""

import pickle

import pytest

from conftest import Grid, sealed_store_state

from repro.core import schemes as schemes_mod
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
        run finishes bit-identically, while the engine's keyed BLAKE2b
        state -- precomputed from the key -- is neither in the file nor
        needed from it."""
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
        assert (Grid(store, "slots")[:, store.z_max:] >= 0).any()
        path = tmp_path / "ck.pkl"
        save_checkpoint(sim, path)
        assert set(sim.datastore.engine.__getstate__()) == {
            "_enc_key", "_mac_key"}
        resumed = load_checkpoint(path)
        item = [(64, 3, bytes(64))]
        assert resumed.datastore.engine.seal_many(
            item) == sim.datastore.engine.seal_many(item)
        assert sealed_store_state(resumed.datastore) == sealed_store_state(
            sim.datastore
        )
        assert resumed.faulty.summary() == sim.faulty.summary()
        resumed_slots = Grid(resumed.oram.store, "slots")
        assert (resumed_slots == Grid(store, "slots")).all()
        assert (resumed.oram.ext.host_table() == ext.host_table()).all()
        assert resumed.oram.ext.n_active == ext.n_active
        assert resumed.run().to_dict() == baseline.to_dict()
        resumed.oram.check_invariants()

    def test_run_emits_periodic_checkpoints(self, tmp_path):
        path = tmp_path / "ck.pkl"
        sim = _fresh()
        sim.run(checkpoint_every=40, checkpoint_path=str(path))
        resumed = load_checkpoint(path)
        assert resumed.position == 80  # the last multiple of 40 before done

    def test_checkpoint_into_a_new_directory(self, tmp_path):
        path = tmp_path / "no" / "such" / "dir" / "ck.pkl"
        sim = _fresh()
        sim.run(checkpoint_every=40, checkpoint_path=str(path))
        assert load_checkpoint(path).position == 80

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
        per-hook observer lists), format 4 (DeadQs as numpy ring
        buffers), format 5 (a DRAM model with an address-mapping
        object) and format 6 (refresh epochs, and a timed sink of byte
        offsets): the file would load and the run die later on a
        missing attribute. Format 7 (ChaCha20 payloads) would load and
        run, its MACs verifying, but open to wrong bytes; format 8
        (HMAC-SHA256 tags) would fail every MAC; format 9 (a sealed
        store with a ``TreeLayout``, an engine with a
        ``BlockAuthenticator``) would die on a missing attribute.
        Format 10 (a ``TreeLayout`` whose table is ``_offsets``, not
        ``first_byte``) is refused by its number like the rest; format
        11 (numpy bucket tables, indexed ``[b, s]``) would die at the
        first flat ``b * width + s`` subscript; format 12 (a controller
        whose generator sits at ``rng``, with no ``Draws``) at its first
        draw; format 13 (an allocator with numpy ``host_bucket`` /
        ``host_slot`` tables, a Merkle digest list without the leaves'
        children) at its first rental or rehash; format 14 (a fault
        wrapper with a ``_history`` dict and no primed decisions) at its
        first replay; format 15 (a timed sink without held lines, a
        controller caching metadata items) at its first issue. Each refusal is one line naming the format found and the
        one expected."""
        for fmt in (99, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15):
            assert fmt != CHECKPOINT_FORMAT
            path = tmp_path / f"format-{fmt}.pkl"
            path.write_bytes(pickle.dumps({
                "magic": "repro-sim-checkpoint", "format": fmt,
                "simulation": _fresh(requests=1),
            }))
            with pytest.raises(
                ValueError, match="unsupported checkpoint format"
            ) as refused:
                load_checkpoint(path)
            assert str(refused.value) == (
                f"{path}: unsupported checkpoint format {fmt} "
                f"(expected {CHECKPOINT_FORMAT})"
            )

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
