"""Golden pin: the ring controller's *state* after fixed runs.

``tools/controller_fingerprint.py`` hashes, per configuration of a
fixed matrix, the result, the controller's RNG state, the local columns
of ``slots`` / ``status`` / ``generation``, ``count`` / ``sustain``,
the stash, ``ext.stats()``, observer state, the Merkle root and the
recovery counters. ``tests/goldens/controller_state.json`` was recorded
at the commit before the bucket-row collapse (rentals in a pooled side
table, two readPath bodies) -- its ``model/ab-recursive`` and
``sim/ab/deferred`` entries at the commit before the one-body collapse
(two reshuffle bodies, three copies of the post-read step); a refactor
of the controller must reproduce it. The report goldens cannot see a
swapped pair of slots or an RNG stream shifted by one draw that costs
the same DRAM ns -- this can. After an intended change of behaviour, regenerate with
``PYTHONPATH=src python tools/controller_fingerprint.py --json >
tests/goldens/controller_state.json`` and review the diff like a
baseline refresh.
"""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(__file__)


def _load_tool():
    path = os.path.join(HERE, os.pardir, "tools", "controller_fingerprint.py")
    spec = importlib.util.spec_from_file_location(
        "controller_fingerprint", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()

with open(os.path.join(HERE, "goldens", "controller_state.json")) as _f:
    GOLDEN = json.load(_f)


def test_golden_covers_the_whole_matrix():
    names = list(TOOL.matrix())
    assert sorted(names) == sorted(GOLDEN)
    assert sum(n.startswith("sim/") for n in names) == 21
    assert sum(n.startswith("model/") for n in names) == 7


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_controller_state_matches_golden(name):
    assert TOOL.fingerprints([name]) == {name: GOLDEN[name]}


def test_fingerprint_sees_a_swapped_pair_of_slots():
    """What the report goldens miss: same counters, same DRAM ns, two
    slots of one bucket the other way round."""
    from repro.core import schemes
    from repro.core.ab_oram import build_oram

    def state(swap):
        oram = build_oram(schemes.by_name("ab", 7), seed=1)
        oram.warm_fill()
        if swap:
            row = oram.store.slots[oram.cfg.n_buckets - 1]
            row[0], row[1] = row[1], row[0]
        return TOOL._digest(TOOL.controller_state(oram))

    assert state(False) == state(False)
    assert state(True) != state(False)
