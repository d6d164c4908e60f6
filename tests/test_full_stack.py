"""Full-stack integration: every optional subsystem enabled at once.

One ORAM instance with the AB extensions (DeadQ + remote allocation),
the encrypted tree store (BLAKE2b keystream + MAC + Merkle), recursive
position map with a tiny PLB, DRAM timing, security observers, and
dead-block analytics -- all running together over a mixed workload, with data
correctness checked against a shadow dict and every subsystem's meters
asserted to have moved.
"""

import numpy as np
import pytest

from repro.analysis.deadblocks import LifetimeTracker
from repro.core import schemes
from repro.core.remote import RemoteAllocator
from repro.core.security import GuessingAttacker
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.oram.datastore import EncryptedTreeStore, pad_block
from repro.oram.ring import RingOram
from repro.oram.stats import CountingSink, OpKind, TeeSink
from repro.sim.engine import DramSink


@pytest.fixture(scope="module")
def stack():
    cfg = schemes.ab_scheme(8)
    counting = CountingSink(cfg.levels)
    dram_sink = DramSink(TreeLayout(cfg, metadata_blocks=1), DramModel())
    attacker = GuessingAttacker(cfg.levels, seed=9)
    lifetimes = LifetimeTracker(cfg.levels)
    oram = RingOram(
        cfg,
        sink=TeeSink(counting, dram_sink),
        seed=9,
        extensions=RemoteAllocator(cfg),
        observers=[attacker, lifetimes],
        datastore=EncryptedTreeStore(cfg, b"full stack master key", seed=9),
        posmap_mode="recursive",
        plb_entries=16,
    )
    # Force recursion at this tiny scale.
    oram.posmap_model.__init__(cfg.n_real_blocks, plb_entries=16,
                               onchip_entries=32)
    oram.warm_fill()
    shadow = {}
    rng = np.random.default_rng(99)
    mismatches = 0
    stash_samples = []
    for i in range(400):
        stash_samples.append(oram.stash.occupancy)
        blk = int(rng.integers(cfg.n_real_blocks))
        if rng.random() < 0.5:
            val = f"payload-{i}".encode()
            shadow[blk] = pad_block(val, 64)
            oram.write(blk, val)
        else:
            got = oram.read(blk)
            expect = shadow.get(blk, pad_block(b"", 64))
            if got != expect:
                mismatches += 1
    return {
        "cfg": cfg,
        "oram": oram,
        "counting": counting,
        "dram_sink": dram_sink,
        "attacker": attacker,
        "lifetimes": lifetimes,
        "stash_samples": stash_samples,
        "mismatches": mismatches,
        "shadow": shadow,
    }


class TestFullStack:
    def test_data_correct_throughout(self, stack):
        assert stack["mismatches"] == 0

    def test_invariants_hold(self, stack):
        stack["oram"].check_invariants()

    def test_remote_machinery_exercised(self, stack):
        ext = stack["oram"].ext
        assert ext.extension_grants > 0
        assert ext.remote_reads > 0

    def test_posmap_recursion_exercised(self, stack):
        assert stack["counting"].by_kind[OpKind.POSMAP].ops > 0
        assert stack["oram"].posmap_model.misses > 0

    def test_crypto_exercised(self, stack):
        ds = stack["oram"].datastore
        assert ds.seals > 500
        assert ds.opens > 100
        assert ds.integrity.verifications > 100

    def test_dram_time_advanced(self, stack):
        sink = stack["dram_sink"]
        assert sink.now > 0
        assert sum(sink.time_by_kind.values()) > 0
        assert sink.time_by_kind[OpKind.POSMAP] > 0

    def test_attacker_still_blind(self, stack):
        atk = stack["attacker"]
        # With posmap dummy accesses in the mix the success rate only
        # drops below 1/L (dummy paths are unguessable); it must never
        # exceed it significantly.
        assert atk.success_rate < atk.expected_rate + 0.03

    def test_lifetimes_recorded(self, stack):
        assert stack["lifetimes"].count.sum() > 0

    def test_stash_sampled(self, stack):
        samples = stack["stash_samples"]
        assert len(samples) >= 400
        assert max(samples) < stack["cfg"].stash_capacity

    def test_payloads_never_plaintext_in_memory(self, stack):
        memory = bytes(stack["oram"].datastore._memory)
        assert b"payload-" not in memory
