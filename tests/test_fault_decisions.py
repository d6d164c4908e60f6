"""The identity the fault adversary's primed decisions rest on.

``FaultPlan.primed`` feeds each armed kind's BLAKE2b state the
``f"{seed}|{kind}|"`` prefix once, and ``strike`` copies it per
operation and feeds it the rest, ``f"{op}|{bucket}|{slot}"``: together
exactly the bytes ``plan._unit`` hashes, so a kind fires where
``_unit(seed, kind, op, bucket, slot) < rate`` would. Each example
pins the decision at the draw itself -- it fires at the next float
above the draw and not at the draw -- so a primed hash of any other
bytes fails every example.
"""

import math
import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tiny_config

from repro.faults.memory import FaultyMemory
from repro.faults.plan import FAULT_KINDS, OPEN_KINDS, FaultPlan, _unit, strike
from repro.oram.datastore import EncryptedTreeStore

#: Ids from 0 past the 32-bit range.
_ID = st.one_of(st.integers(0, 40), st.integers(0, 2**64))
_RATE = st.sampled_from([0.0, 0.01, 0.3, 0.9, 1.0])


@given(seed=_ID, kind=st.sampled_from(FAULT_KINDS),
       op=_ID, bucket=_ID, slot=_ID)
@example(seed=0, kind="bit_flip", op=0, bucket=0, slot=0)
@example(seed=2**32 + 1, kind="replay", op=2**32, bucket=2**33 + 5,
         slot=2**40)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_primed_decision_is_the_unit_draw(seed, kind, op, bucket, slot):
    draw = _unit(seed, kind, op, bucket, slot)
    above = FaultPlan(seed=seed, rates={kind: math.nextafter(draw, 1.0)})
    assert strike(above.primed([kind]), op, bucket, slot) == kind
    if draw > 0.0:
        at = FaultPlan(seed=seed, rates={kind: draw})
        assert strike(at.primed([kind]), op, bucket, slot) is None


@given(seed=_ID, rates=st.fixed_dictionaries({k: _RATE for k in OPEN_KINDS}),
       op=_ID, bucket=_ID, slot=_ID)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_first_kind_to_fire_wins_in_priority_order(seed, rates, op, bucket,
                                                   slot):
    """What the per-kind ``_unit`` loop picks: the first kind, in
    ``OPEN_KINDS`` order, whose rate is positive and above its draw."""
    plan = FaultPlan(seed=seed, rates=rates)
    expected = next(
        (kind for kind in OPEN_KINDS
         if rates[kind] > 0.0
         and _unit(seed, kind, op, bucket, slot) < rates[kind]),
        None,
    )
    assert strike(plan.primed(OPEN_KINDS), op, bucket, slot) == expected


def test_a_wrapper_decides_alike_after_unpickling():
    """The primed states stay out of the plan and the wrapper (hash
    states do not pickle): a resumed wrapper primes again and strikes
    the same ops as the one it was pickled from."""
    plan = FaultPlan(seed=9, rates={"bit_flip": 0.2, "replay": 0.2,
                                    "unavailable": 0.1,
                                    "dropped_write": 0.3})
    mem = FaultyMemory(EncryptedTreeStore(tiny_config(), b"k" * 16), plan)
    mem.seal_many([(b, s, b"%d" % b) for b in range(6) for s in range(3)])
    mem.armed = True
    resumed = pickle.loads(pickle.dumps(mem))
    trails = []
    for wrapper in (mem, resumed):
        for _ in range(4):
            wrapper.seal_many([(b, s, None) for b in range(6)
                               for s in range(3)])
            outcomes = list(wrapper.open_many([(b, 1) for b in range(6)]))
        trails.append((wrapper.summary(), [type(o) for o in outcomes]))
    assert trails[0] == trails[1]
    assert sum(trails[0][0]["injected"].values()) > 0
