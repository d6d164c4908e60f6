"""Unit tests for access accounting (repro.oram.stats)."""

import pytest

from repro.oram.stats import CountingSink, MemorySink, OpKind, TeeSink
from tests.conftest import recorded_ab_stream, replay_stream


@pytest.fixture
def sink():
    return CountingSink(levels=4)


class TestCountingSink:
    def test_ops_counted_per_kind(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.end_op()
        sink.begin_op(OpKind.EVICT_PATH)
        sink.end_op()
        sink.begin_op(OpKind.EVICT_PATH)
        sink.end_op()
        assert sink.by_kind[OpKind.READ_PATH].ops == 1
        assert sink.by_kind[OpKind.EVICT_PATH].ops == 2

    def test_data_reads_and_writes(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(0, 0, 0, False, False)], False)
        sink.data_access_many([(1, 0, 1, False, False)], True)
        sink.end_op()
        c = sink.by_kind[OpKind.READ_PATH]
        assert c.data_reads == 1
        assert c.data_writes == 1

    def test_per_level_attribution(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(0, 0, 0, False, False)], False)
        sink.data_access_many([(5, 0, 2, False, False)], False)
        sink.data_access_many([(5, 1, 2, False, False)], True)
        sink.end_op()
        assert sink.data_reads_by_level[0] == 1
        assert sink.data_reads_by_level[2] == 1
        assert sink.data_writes_by_level[2] == 1

    def test_onchip_not_counted_as_traffic(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(0, 0, 0, True, False)], False)
        sink.end_op()
        c = sink.by_kind[OpKind.READ_PATH]
        assert c.data_reads == 0
        assert c.onchip_accesses == 1

    def test_remote_flag_counted(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(0, 0, 0, False, True)], False)
        sink.end_op()
        assert sink.by_kind[OpKind.READ_PATH].remote_accesses == 1

    def test_metadata_blocks_multiplier(self, sink):
        sink.begin_op(OpKind.EARLY_RESHUFFLE)
        sink.metadata_access_many([(0, 0, False)], False, 2)
        sink.end_op()
        assert sink.by_kind[OpKind.EARLY_RESHUFFLE].meta_reads == 2

    def test_nested_op_raises(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        with pytest.raises(RuntimeError):
            sink.begin_op(OpKind.EVICT_PATH)

    def test_end_without_begin_raises(self, sink):
        with pytest.raises(RuntimeError):
            sink.end_op()

    def test_unattributed_accesses_tolerated(self, sink):
        sink.data_access_many([(0, 0, 0, False, False)], False)
        assert sink.unattributed_accesses == 1

    def test_stray_touch_counted_in_unattributed_only(self, sink):
        # One rule for every entry point: outside an operation a touch
        # lands in ``unattributed_accesses`` and nowhere else (the old
        # scalar path also bumped the per-level arrays).
        sink.data_access_many([(0, 0, 1, False, False)], False)
        sink.data_access_many([(0, 0, 1, False, False)], True)
        sink.metadata_access_many([(0, 1, False)], False, 2)
        sink.data_access_many([(0, 0, 1, False, False)] * 2, write=False)
        sink.data_access_many([(0, 0, 1, False, False)] * 3, write=True)
        sink.metadata_access_many([(0, 1, False)], write=True)
        assert sink.unattributed_accesses == 9
        assert not sink.data_reads_by_level.any()
        assert not sink.data_writes_by_level.any()
        assert sink.total_offchip == 0
        assert not any(c.onchip_accesses for c in sink.by_kind.values())

    def test_total_offchip_and_bytes(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(0, 0, 0, False, False)], False)
        sink.metadata_access_many([(0, 0, False)], True)
        sink.end_op()
        assert sink.total_offchip == 2

    def test_reset(self, sink):
        sink.begin_op(OpKind.READ_PATH)
        sink.data_access_many([(0, 0, 0, False, False)], False)
        sink.end_op()
        sink.reset()
        assert sink.total_offchip == 0
        assert sink.by_kind[OpKind.READ_PATH].ops == 0

    def test_summary_shape(self, sink):
        sink.begin_op(OpKind.BACKGROUND)
        sink.end_op()
        s = sink.summary()
        assert s["background"]["ops"] == 1
        assert set(s) == {"readPath", "evictPath", "earlyReshuffle",
                          "background", "posMap", "recovery"}


class TestTeeSink:
    def test_fans_out(self):
        a, b = CountingSink(2), CountingSink(2)
        tee = TeeSink(a, b)
        tee.begin_op(OpKind.READ_PATH)
        tee.data_access_many([(0, 0, 0, False, False)], False)
        tee.metadata_access_many([(0, 0, False)], True)
        tee.end_op()
        for s in (a, b):
            assert s.by_kind[OpKind.READ_PATH].data_reads == 1
            assert s.by_kind[OpKind.READ_PATH].meta_writes == 1

    def test_requires_a_sink(self):
        with pytest.raises(ValueError):
            TeeSink()


class TestBaseSink:
    def test_base_sink_is_silent(self):
        s = MemorySink()
        s.begin_op(OpKind.READ_PATH)
        s.data_access_many([(0, 0, 0, False, False)], False)
        s.metadata_access_many([(0, 0, False)], False)
        s.end_op()


class TestOpBracketGuards:
    """Every sink must surface unbalanced begin_op/end_op bracketing.

    A nested begin_op or an end_op without a matching begin_op is a
    controller bug; historically only CountingSink and DramSink caught
    it, so a misbracketed run against the base sink (or a TeeSink of
    silent sinks) went unnoticed. Now the whole sink family guards.
    """

    def _sinks(self):
        from repro.core.pipeline import PipelinedDramSink
        from repro.mem.dram import DramModel
        from repro.mem.layout import TreeLayout
        from repro.sim.engine import DramSink
        from tests.conftest import tiny_config

        cfg = tiny_config()
        dram = DramSink(TreeLayout(cfg), DramModel())
        return [
            MemorySink(),
            CountingSink(levels=4),
            TeeSink(MemorySink(), MemorySink()),
            dram,
            PipelinedDramSink(TreeLayout(cfg), DramModel(), depth=2),
        ]

    def test_end_without_begin_raises_everywhere(self):
        for s in self._sinks():
            with pytest.raises(RuntimeError, match="without begin_op"):
                s.end_op()

    def test_double_begin_raises_everywhere(self):
        for s in self._sinks():
            s.begin_op(OpKind.READ_PATH)
            with pytest.raises(RuntimeError, match="nested"):
                s.begin_op(OpKind.EVICT_PATH)

    def test_balanced_brackets_recover_after_error(self):
        for s in self._sinks():
            with pytest.raises(RuntimeError):
                s.end_op()
            s.begin_op(OpKind.READ_PATH)
            s.end_op()
            s.begin_op(OpKind.EVICT_PATH)
            s.end_op()


class TestSinkProtocol:
    """The two primitives are the protocol: a batch equals its touches
    made one primitive call each."""

    def test_stream_covers_every_item_shape(self):
        stream = recorded_ab_stream()

        def calls(name):
            return [args for n, args in stream if n == name]

        batches = [items for items, _write in calls("data_access_many")]
        items = [it for batch in batches for it in batch]
        assert any(it[3] for it in items), "no on-chip item"
        assert any(it[4] for it in items), "no remote item"
        assert any(b and all(it[3] for it in b) for b in batches)
        assert any(not b for b in batches), "no empty batch"
        assert any(len(b) > 1 and len(set(b)) == 1 for b in batches), \
            "no Z'-copy burst"
        assert any(a[2] == 2 for a in calls("metadata_access_many"))
        assert {OpKind.READ_PATH, OpKind.EVICT_PATH,
                OpKind.EARLY_RESHUFFLE} <= {a[0] for a in calls("begin_op")}

    def test_counting_sink_batch_equals_scalar(self):
        stream = recorded_ab_stream()
        batched, scalar = CountingSink(levels=7), CountingSink(levels=7)
        replay_stream(batched, stream)
        replay_stream(scalar, stream, scalar=True)
        assert batched.summary() == scalar.summary()
        assert batched.total_offchip > 0
        assert (batched.data_reads_by_level
                == scalar.data_reads_by_level).all()
        assert (batched.data_writes_by_level
                == scalar.data_writes_by_level).all()
        assert batched.unattributed_accesses == 0
        assert scalar.unattributed_accesses == 0

    def test_tee_forwards_scalar_calls_as_batches(self):
        stream = recorded_ab_stream(accesses=50)
        a, b = CountingSink(levels=7), CountingSink(levels=7)
        replay_stream(TeeSink(a, b), stream, scalar=True)
        direct = CountingSink(levels=7)
        replay_stream(direct, stream)
        assert a.summary() == b.summary() == direct.summary()

    def test_no_sink_overrides_the_scalar_conveniences(self):
        import importlib
        import pkgutil

        import repro

        for mod in pkgutil.walk_packages(repro.__path__, "repro."):
            if not mod.name.endswith("__main__"):
                importlib.import_module(mod.name)
        pending, seen = [MemorySink], set()
        while pending:
            for sub in pending.pop().__subclasses__():
                if sub not in seen:
                    seen.add(sub)
                    pending.append(sub)
        sinks = {c for c in seen if c.__module__.startswith("repro.")}
        assert {"CountingSink", "TeeSink", "DramSink",
                "PipelinedDramSink"} <= {c.__name__ for c in sinks}
        for cls in sinks | {MemorySink}:
            for name in ("data_access", "metadata_access"):
                assert name not in vars(cls), (
                    f"{cls.__module__}.{cls.__name__} overrides {name}: "
                    "implement the *_many primitives instead"
                )


class TestOpKindHashing:
    """``OpKind`` hashes by identity (its members are singletons), which
    keys the per-op dicts the timed sink updates on every operation."""

    def test_hash_is_identity_and_lookup_by_value_finds_the_member(self):
        for kind in OpKind:
            assert hash(kind) == object.__hash__(kind)
            assert OpKind(kind.value) is kind
            assert OpKind[kind.name] is kind

    def test_keyed_dicts_and_online_membership(self):
        from repro.core.pipeline import ONLINE_KINDS

        index = {kind: i for i, kind in enumerate(OpKind)}
        assert [index[OpKind(k.value)] for k in OpKind] == list(
            range(len(OpKind)))
        assert [k for k in OpKind if k in ONLINE_KINDS] == [
            OpKind.READ_PATH, OpKind.POSMAP]
        assert "readPath" not in ONLINE_KINDS
        assert {str(k): v for k, v in index.items()}["evictPath"] == 1

    def test_time_by_kind_survives_a_pickle_round_trip(self):
        import pickle

        from repro.core import schemes
        from repro.sim.engine import SimConfig, Simulation
        from repro.sim.runner import make_trace

        scheme = schemes.by_name("ring", 7)
        trace = make_trace("spec", "mcf", scheme.n_real_blocks, 60, seed=0)
        sim = Simulation(scheme, trace, SimConfig(seed=0))
        for _ in range(30):
            sim.step()
        sink = sim.dram_sink
        assert sink.ops_by_kind[OpKind.READ_PATH] > 0
        for table in (sink.time_by_kind, sink.ops_by_kind):
            copy = pickle.loads(pickle.dumps(table))
            assert copy == table
            assert list(copy) == list(table) == list(OpKind)
            assert all(a is b for a, b in zip(copy, table))
            copy[OpKind.READ_PATH] += 1
            assert copy[OpKind.READ_PATH] == table[OpKind.READ_PATH] + 1
