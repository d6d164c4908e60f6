"""Stateful property testing of the oblivious KV store.

Hypothesis drives random put/get/delete sequences against
:class:`~repro.app.kvstore.ObliviousKV` while a plain dict plays the
model; every divergence -- value corruption, ghost keys, leaked or
double-freed blocks -- fails the run with a minimized counterexample.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.app.kvstore import ObliviousKV
from repro.core import schemes
from repro.core.ab_oram import build_oram

KEYS = st.sampled_from([b"a", b"b", b"c", b"d", b"e"])
VALUES = st.binary(min_size=0, max_size=200)


class KVModel(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        # Plaintext backend keeps the state machine fast; the encrypted
        # data path has its own differential tests.
        self.kv = ObliviousKV(build_oram(schemes.by_name("ab", 6), seed=5,
                                         store_data=True))
        self.model = {}

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.kv.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def get(self, key):
        assert self.kv.get(key) == self.model.get(key)

    @rule(key=KEYS)
    def delete(self, key):
        existed = key in self.model
        assert self.kv.delete(key) == existed
        self.model.pop(key, None)

    @rule(key=KEYS)
    def contains(self, key):
        assert (key in self.kv._directory) == (key in self.model)

    @invariant()
    def sizes_agree(self):
        if not hasattr(self, "kv"):
            return
        assert set(self.kv._directory) == set(self.model)

    @invariant()
    def block_accounting_consistent(self):
        if not hasattr(self, "kv"):
            return
        chained = sum(len(c) for c in self.kv._directory.values())
        assert chained == self.kv.used_blocks
        assert (self.kv.used_blocks + self.kv.free_blocks
                == self.kv.oram.cfg.n_real_blocks)
        # No block belongs to two chains or to a chain and the free list.
        all_blocks = [b for c in self.kv._directory.values() for b in c]
        all_blocks += self.kv._free
        assert len(all_blocks) == len(set(all_blocks))

    @invariant()
    def oram_invariants_hold(self):
        if not hasattr(self, "kv"):
            return
        self.kv.oram.check_invariants()


KVModel.TestCase.settings = settings(
    max_examples=15,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestKVStateful = KVModel.TestCase
