"""Property tests for the batching scheduler (hypothesis).

Two invariants carry the serving subsystem's correctness story:

1. **Submission-order independence**: serving a shuffled batch issues
   the identical ORAM access sequence (and returns identical values)
   as serving the same batch sorted by arrival -- the scheduler's
   reordering is a pure function of batch *contents*.
2. **Per-key FIFO**: against a plain-dict reference model replaying
   operations in arrival order, every get returns exactly the
   reference value and the final store state matches, no matter how
   operations interleave across keys or how batches are cut.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import GET, PUT, DELETE, BatchScheduler, Request, build_stack

KEYS = [b"k%d" % i for i in range(6)]

ops = st.one_of(
    st.tuples(st.just(GET), st.sampled_from(KEYS), st.none()),
    st.tuples(st.just(PUT), st.sampled_from(KEYS),
              st.binary(min_size=1, max_size=90)),
    st.tuples(st.just(DELETE), st.sampled_from(KEYS), st.none()),
)

batches = st.lists(ops, min_size=1, max_size=14)


def make_requests(raw):
    return [
        Request(rid=i, op=op, key=key, value=value, arrival_ns=float(i))
        for i, (op, key, value) in enumerate(raw)
    ]


def fresh_scheduler(seed=0):
    stack = build_stack(levels=8, seed=0, observer=False)
    # A few keys pre-exist so gets/deletes hit populated state too.
    stack.kv.preload([(KEYS[0], b"seed0"), (KEYS[1], b"seed1")])
    return stack, BatchScheduler(stack.kv, policy="batch", seed=seed)


settings_kw = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSubmissionOrderIndependence:
    @given(raw=batches, data=st.data())
    @settings(**settings_kw)
    def test_shuffled_batch_serves_identically(self, raw, data):
        reqs = make_requests(raw)
        perm = data.draw(st.permutations(reqs))

        outcomes = []
        for batch in (reqs, perm):
            stack, sched = fresh_scheduler()
            comps = sched.serve_batch(list(batch))
            outcomes.append({
                "served_keys": [c.key for c in comps],
                "values": sorted(
                    (c.rid, c.value, c.ok, c.dedup, c.coalesced)
                    for c in comps
                ),
                "accesses": sched.accesses_issued,
                "dedup": sched.dedup_hits,
                "coalesced": sched.coalesced_puts,
                "state": {k: stack.kv.get(k) for k in KEYS},
            })
        assert outcomes[0] == outcomes[1]


class TestPerKeyFifo:
    @given(raw=batches, cuts=st.lists(st.integers(1, 5), max_size=4))
    @settings(**settings_kw)
    def test_matches_dict_reference_model(self, raw, cuts):
        reqs = make_requests(raw)
        stack, sched = fresh_scheduler(seed=3)
        model = {KEYS[0]: b"seed0", KEYS[1]: b"seed1"}

        # Cut the request stream into admission batches of varying size.
        batches_ = []
        i = 0
        for cut in cuts:
            if i >= len(reqs):
                break
            batches_.append(reqs[i:i + cut])
            i += cut
        if i < len(reqs):
            batches_.append(reqs[i:])

        for batch in batches_:
            comps = {c.rid: c for c in sched.serve_batch(batch)}
            # The reference model replays this batch in arrival order.
            for req in batch:
                comp = comps[req.rid]
                if req.op == GET:
                    expect = model.get(req.key)
                    assert comp.value == expect, (req, comp)
                    assert comp.ok is (expect is not None)
                elif req.op == PUT:
                    model[req.key] = req.value
                    assert comp.ok
                else:
                    existed = req.key in model
                    model.pop(req.key, None)
                    assert comp.ok is existed
        for key in KEYS:
            assert stack.kv.get(key) == model.get(key)


class TestFifoIsAGroupOfOne:
    """The ``fifo`` policy has no body of its own: serving a batch under
    it is serving every request, in arrival order, as its own
    one-request ``batch`` group."""

    @given(raw=batches, deadline_at=st.sets(st.integers(0, 13), max_size=3))
    @settings(derandomize=True, **settings_kw)
    def test_fifo_equals_one_request_batches(self, raw, deadline_at):
        reqs = make_requests(raw)
        for i in deadline_at:
            if i < len(reqs):
                # Already past on the stack's clock: refused unserved.
                reqs[i].deadline_ns = -1.0

        def served(policy):
            stack = build_stack(levels=8, seed=0, observer=False)
            stack.kv.preload([(KEYS[0], b"seed0"), (KEYS[1], b"seed1")])
            sched = BatchScheduler(stack.kv, policy=policy, seed=0,
                                   clock=lambda: stack.dram_sink.now)
            if policy == "fifo":
                comps = sched.serve_batch(list(reqs))
            else:
                comps = [c for req in reqs for c in sched.serve_batch([req])]
            counters = sched.stats()
            del counters["batches"], counters["batch_size_hist"]
            return comps, counters, {k: stack.kv.get(k) for k in KEYS}

        fifo, batch = served("fifo"), served("batch")
        assert fifo == batch
        assert fifo[1]["dedup_hits"] == fifo[1]["coalesced_puts"] == 0
