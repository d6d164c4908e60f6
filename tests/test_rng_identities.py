"""The two generator identities the controller's batched draws rest on.

readPath draws every level's slot, and a reshuffle every bucket's
scatter positions, through one ``Generator.integers(0, bounds)`` call
(DESIGN.md section 14). That is the protocol's stream only while numpy

- draws a bound array element by element, in order, with the bounded
  draw the scalar ``integers(n)`` makes, and
- implements ``choice(n, size=k, replace=False)`` (n <= 10000) as
  Floyd's algorithm followed by a Fisher-Yates shuffle, which
  ``RingOram._scatter_draws`` replays for the jobs it wants and only
  draws for the others.

Both are numpy implementation details. A numpy release that changes
either fails here first, naming its version, instead of only as a wall
of controller fingerprints that no longer match.
"""

import numpy as np

from repro.oram.ring import _draw, _scatter_draws as _replay

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
        helper = np.random.default_rng(seed)
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
        # The controller's helper (scalar call for a single bound).
        assert _draw(helper, bounds) == want
        assert helper.bit_generator.state == scalar.bit_generator.state


def _check_replay(seed, jobs):
    """``jobs`` are ``(n, k, wanted)``: an unwanted job's result is
    ``None``, and the generator ends where ``choice`` leaves it."""
    replayed = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    got = _replay(replayed, jobs)
    want = [reference.choice(n, size=k, replace=False).tolist()
            for n, k, _ in jobs]
    want = [w if wanted else None for w, (_, _, wanted) in zip(want, jobs)]
    assert got == want, (
        f"{WHERE}: the Floyd + Fisher-Yates replay of {jobs} gave {got}, "
        f"choice(n, size=k, replace=False) gives {want}"
    )
    assert replayed.bit_generator.state == reference.bit_generator.state, (
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
    gen = np.random.default_rng(2)
    state = gen.bit_generator.state
    assert _replay(gen, []) == []
    assert gen.bit_generator.state == state
