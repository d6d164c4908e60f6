"""The generator identities the protocol's draws rest on.

readPath draws every level's slot, and a reshuffle every bucket's
scatter positions, through one ``Draws.below(bounds)`` call, and the
position map its leaves through ``Draws.one(n)`` (DESIGN.md section
14); the sealed store draws a write-back's dummy filler as ``8 * n``
raw words, the bytes of ``integers(0, 256, (n, 64), dtype=uint8)``.
That is the protocol's stream only while numpy

- draws a bound array element by element, in order, with the bounded
  draw the scalar ``integers(n)`` makes,
- implements ``choice(n, size=k, replace=False)`` (n <= 10000) as
  Floyd's algorithm followed by a Fisher-Yates shuffle, which
  ``RingOram._scatter_draws`` replays for the jobs it wants and only
  draws for the others,
- makes that bounded draw Lemire's over ``next_uint32``, which PCG64
  serves from the low and then the buffered upper half of one raw
  word, keeping the used half as a stale ``uinteger``, and which draws
  nothing for a bound of 1: ``Draws`` replays exactly that over
  ``random_raw`` words, and
- fills an ``(n, 64)`` byte array row by row with the bytes, and the
  generator state, of ``n`` calls that draw 64 bytes each, four bytes
  per ``next_uint32``, low byte first: the little-endian bytes of the
  raw words those calls use up.

All four are numpy implementation details. A numpy release that changes
any of them fails here first, naming its version, instead of only as a
wall of controller fingerprints that no longer match.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config

from repro.oram.datastore import EncryptedTreeStore
from repro.oram.draws import Draws
from repro.oram.ring import _scatter_draws as _replay

WHERE = f"numpy {np.__version__}"


def test_bound_array_draws_like_the_scalar_loop():
    picker = np.random.default_rng(0)
    for seed in range(200):
        size = int(picker.integers(1, 17))
        # Mostly the controller's small bounds (1 draws nothing), some
        # large ones up to the 32-bit limit.
        bounds = [
            int(picker.integers(1, 2**32)) if picker.random() < 0.2
            else int(picker.integers(1, 40))
            for _ in range(size)
        ]
        batched = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        got = batched.integers(0, bounds).tolist()
        want = [int(scalar.integers(b)) for b in bounds]
        assert got == want, (
            f"{WHERE}: integers(0, {bounds}) drew {got}, "
            f"the scalar loop {want}"
        )
        assert batched.bit_generator.state == scalar.bit_generator.state, (
            f"{WHERE}: integers(0, {bounds}) left the generator elsewhere "
            f"than the scalar loop"
        )
        # The controller's stream.
        draws = Draws(seed)
        assert draws.below(bounds) == want
        assert draws.generator.bit_generator.state == scalar.bit_generator.state


def _check_replay(seed, jobs):
    """``jobs`` are ``(n, k, wanted)``: an unwanted job's result is
    ``None``, and the generator ends where ``choice`` leaves it."""
    replayed = Draws(seed)
    reference = np.random.default_rng(seed)
    got = _replay(replayed, jobs)
    want = [reference.choice(n, size=k, replace=False).tolist()
            for n, k, _ in jobs]
    want = [w if wanted else None for w, (_, _, wanted) in zip(want, jobs)]
    assert got == want, (
        f"{WHERE}: the Floyd + Fisher-Yates replay of {jobs} gave {got}, "
        f"choice(n, size=k, replace=False) gives {want}"
    )
    assert (replayed.generator.bit_generator.state
            == reference.bit_generator.state), (
        f"{WHERE}: the replay of {jobs} left the generator elsewhere than "
        f"choice(n, size=k, replace=False)"
    )


def test_replay_equals_choice_for_every_small_shape():
    for n in range(1, 17):
        for k in range(1, n + 1):
            for seed in range(50):
                _check_replay(seed, [(n, k, True)])


def test_replay_equals_choice_over_concatenated_jobs():
    picker = np.random.default_rng(1)
    for seed in range(300):
        jobs = []
        for _ in range(int(picker.integers(1, 9))):
            n = int(picker.integers(1, 17))
            jobs.append((n, int(picker.integers(1, n + 1)),
                         bool(picker.random() < 0.7)))
        _check_replay(seed, jobs)


def test_unwanted_job_draws_without_replaying():
    for seed in range(50):
        _check_replay(seed, [(9, 4, False)])
        _check_replay(seed, [(9, 4, False), (7, 3, True)])


def test_no_jobs_no_draw():
    draws = Draws(2)
    state = draws.generator.bit_generator.state
    assert _replay(draws, []) == []
    assert draws.generator.bit_generator.state == state


# Bounds of 1 draw nothing; [2**31, 2**32] reaches Lemire's rejection
# loop (up to half the draws near 2**31 are redrawn).
_BOUND = st.one_of(st.just(1), st.integers(2, 40),
                   st.integers(2**31, 2**32))
_STEP = st.one_of(
    st.tuples(st.just("below"), st.lists(_BOUND, max_size=120)),
    st.tuples(st.just("skip"), st.lists(_BOUND, max_size=120)),
    # Long runs of one bound cross the raw-word blocks.
    st.tuples(st.just("run"), st.tuples(_BOUND, st.integers(0, 3000))),
    st.tuples(st.just("one"), _BOUND),
    st.tuples(st.just("permutation"), st.integers(1, 20)),
    st.tuples(st.just("pickle"), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), prefix=st.integers(0, 5),
       steps=st.lists(_STEP, max_size=10))
def test_draws_replay_numpy_bounded_integers(seed, prefix, steps):
    """``below`` / ``one`` equal ``integers(0, bounds)`` / ``integers(n)``
    in values, ``skip`` moves the stream as ``below`` does, and the
    synced generator equals numpy's own, after an odd or even prefix of
    numpy scalar draws, across syncs followed by a numpy
    ``permutation``, and across a pickle round trip."""
    draws = Draws(seed)
    numpy_gen = np.random.default_rng(seed)
    for _ in range(prefix):
        assert draws.generator.integers(7) == numpy_gen.integers(7)
    for op, arg in steps:
        if op == "below":
            got, want = draws.below(arg), numpy_gen.integers(0, arg).tolist()
        elif op == "skip":
            numpy_gen.integers(0, arg)
            got, want = draws.skip(arg), None
        elif op == "run":
            bounds = [arg[0]] * arg[1]
            got = draws.below(bounds)
            want = numpy_gen.integers(0, bounds).tolist()
        elif op == "one":
            got, want = draws.one(arg), int(numpy_gen.integers(arg))
        elif op == "permutation":
            got = draws.generator.permutation(arg).tolist()
            want = numpy_gen.permutation(arg).tolist()
        else:
            draws = pickle.loads(pickle.dumps(draws))
            continue
        assert got == want, (
            f"{WHERE}: {op} {arg} gave {got}, numpy's own call {want}"
        )
    assert draws.generator.bit_generator.state == (
        numpy_gen.bit_generator.state
    ), f"{WHERE}: the synced stream left the generator elsewhere than numpy"


@pytest.mark.parametrize("bound", [0, -1, -2**40, 2**32 + 1, 2**40])
def test_bounds_outside_the_32_bit_range_are_refused(bound):
    draws = Draws(3)
    with pytest.raises(ValueError, match=r"\[1, 2\*\*32\]"):
        draws.one(bound)
    with pytest.raises(ValueError, match=r"\[1, 2\*\*32\]"):
        draws.below([5, bound])
    with pytest.raises(ValueError, match=r"\[1, 2\*\*32\]"):
        draws.skip([5, bound])
    if bound < 1:
        with pytest.raises(ValueError):
            np.random.default_rng(3).integers(0, [5, bound])
    # A refused call draws nothing.
    assert draws.below([5]) == np.random.default_rng(3).integers(0, [5]).tolist()


def test_filler_rows_draw_like_one_block_per_call():
    block = 64
    for seed in range(50):
        for n in range(6):
            batched = np.random.default_rng(seed)
            scalar = np.random.default_rng(seed)
            got = batched.integers(0, 256, (n, block), dtype=np.uint8)
            want = [scalar.integers(0, 256, block, dtype=np.uint8).tobytes()
                    for _ in range(n)]
            assert [row.tobytes() for row in got] == want, (
                f"{WHERE}: {n} filler rows differ from {n} single draws"
            )
            assert batched.bit_generator.state == scalar.bit_generator.state, (
                f"{WHERE}: {n} filler rows left the generator elsewhere "
                f"than {n} single draws"
            )


def test_filler_is_the_raw_words_of_the_byte_draw():
    """The store's filler, ``random_raw(8 * n)`` as little-endian bytes,
    is what ``integers(0, 256, (n, 64), dtype=uint8)`` returns, and the
    stream goes on alike. The state dicts differ only in the stale
    ``uinteger`` (the byte draw leaves its last word's upper half there,
    ``random_raw`` leaves it be): ``has_uint32`` is 0 after both, so no
    draw reads it, and the store's generator is compared only with a
    store of the same code (checkpoints pickle it whole)."""
    cfg = tiny_config(levels=3)
    for seed in range(50):
        for n in range(6):
            store = EncryptedTreeStore(cfg, b"filler identity.", seed=seed)
            reference = np.random.default_rng(seed)
            want = reference.integers(0, 256, (n, 64), dtype=np.uint8)
            assert store._dummy_plaintext(n) == want.tobytes(), (
                f"{WHERE}: {n} blocks of raw words differ from the byte draw"
            )
            got = store._rng.bit_generator.state
            ref = reference.bit_generator.state
            assert got["state"] == ref["state"]
            assert got["has_uint32"] == ref["has_uint32"] == 0
            for rng in (store._rng, reference):
                rng.bit_generator.state = dict(
                    rng.bit_generator.state, uinteger=0)
            assert store._rng.bit_generator.state == reference.bit_generator.state
            assert store._dummy_plaintext() == reference.integers(
                0, 256, 64, dtype=np.uint8).tobytes()
            assert store._rng.integers(2**32, size=3).tolist() == (
                reference.integers(2**32, size=3).tolist())
