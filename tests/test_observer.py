"""Tests for the controller observer protocol (repro.oram.observer)."""

import numpy as np

from conftest import RecordingSink

from repro.core.ab_oram import build_oram
from repro.oram.observer import BaseObserver
from repro.oram.stats import OpKind


class Recorder(BaseObserver):
    """Observer recording every event for assertions."""

    def __init__(self):
        self.accesses = []
        self.read_paths = []
        self.deaths = []
        self.reclaims = []

    def on_access_start(self, access_no):
        self.accesses.append(access_no)

    def on_read_path(self, leaf, reads, target_bucket):
        self.read_paths.append((leaf, list(reads), target_bucket))

    def on_slot_dead(self, bucket, slot, level):
        self.deaths.append((bucket, slot, level))

    def on_slot_reclaimed(self, bucket, slot, level, how):
        self.reclaims.append((bucket, slot, level, how))


def drive(cfg, n=60, seed=0, sink=None):
    rec = Recorder()
    oram = build_oram(cfg, seed=seed, observers=[rec], sink=sink)
    oram.warm_fill()
    rng = np.random.default_rng(seed)
    for _ in range(n):
        oram.access(int(rng.integers(cfg.n_real_blocks)))
    return oram, rec


class TestBaseObserver:
    def test_all_hooks_are_noops(self):
        obs = BaseObserver()
        obs.on_access_start(1)
        obs.on_read_path(0, [], -1)
        obs.on_slot_dead(0, 0, 0)
        obs.on_slot_reclaimed(0, 0, 0, "reshuffle")


class TestEventStream:
    def test_access_numbers_monotone(self, cfg_small):
        _, rec = drive(cfg_small)
        assert rec.accesses == sorted(rec.accesses)
        assert rec.accesses[0] == 1

    def test_one_read_per_level_per_path(self, cfg_small):
        _, rec = drive(cfg_small)
        for _leaf, reads, _tb in rec.read_paths:
            assert len(reads) == cfg_small.levels
            levels = sorted(r[2] for r in reads if not r[3])
            # Non-remote reads cover their own levels exactly once.
            assert len(levels) == len(set(levels))

    def test_target_bucket_is_on_path(self, cfg_small):
        from repro.oram.tree import bucket_on_path
        _, rec = drive(cfg_small)
        found = 0
        for leaf, _reads, tb in rec.read_paths:
            if tb >= 0:
                found += 1
                assert bucket_on_path(tb, leaf, cfg_small.levels)
        assert found > 0

    def test_eviction_count_matches_rate(self, cfg_small):
        sink = RecordingSink()
        oram, _ = drive(cfg_small, n=30, sink=sink)
        expected = (30 + oram.background_accesses) // cfg_small.evict_rate
        evictions = [a for name, a in sink.calls
                     if name == "begin_op" and a[0] == OpKind.EVICT_PATH]
        assert len(evictions) == expected

    def test_every_death_eventually_reclaimable(self, cfg_small):
        """Reclaim events only ever name slots that died before."""
        _, rec = drive(cfg_small, n=80)
        died = set((b, s) for b, s, _ in rec.deaths)
        for b, s, _lv, _how in rec.reclaims:
            assert (b, s) in died

    def test_reclaim_reasons(self, cfg_ab_small):
        _, rec = drive(cfg_ab_small, n=250, seed=3)
        reasons = {how for _, _, _, how in rec.reclaims}
        assert "reshuffle" in reasons
        assert "remote" in reasons  # rentals happened

    def test_reshuffle_kinds(self, cfg_small):
        sink = RecordingSink()
        drive(cfg_small, n=80, sink=sink)
        kinds = {a[0] for name, a in sink.calls if name == "begin_op"}
        assert OpKind.EVICT_PATH in kinds

    def test_remote_reads_flagged(self, cfg_ab_small):
        _, rec = drive(cfg_ab_small, n=250, seed=3)
        remote = [r for _, reads, _ in rec.read_paths
                  for r in reads if r[3]]
        assert remote, "no remote reads observed"
        band = set(cfg_ab_small.deadq_levels)
        for _b, _s, lv, _ in remote:
            assert lv in band

    def test_multiple_observers_all_notified(self, cfg_small):
        a, b = Recorder(), Recorder()
        oram = build_oram(cfg_small, seed=0, observers=[a, b])
        for i in range(10):
            oram.access(i % cfg_small.n_real_blocks)
        assert len(a.read_paths) == len(b.read_paths) > 0


# ------------------------------------------------------- per-hook dispatch

HOOKS = ("on_access_start", "on_read_path", "on_slot_dead",
         "on_slot_reclaimed")


def test_the_protocol_has_these_four_hooks():
    from repro.oram import observer
    assert observer.HOOKS == HOOKS


def _plain(value):
    """An event argument as plain data (slot batches arrive as arrays)."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return str(value) if isinstance(value, OpKind) else value


def event_log(*hooks):
    """An observer overriding exactly ``hooks``, all of them appending
    ``(hook, args)`` to the one list ``events``."""
    def recorder(hook):
        def record(self, *args):
            self.events.append((hook, _plain(args)))
        return record
    cls = type("EventLog", (BaseObserver,), {h: recorder(h) for h in hooks})
    log = cls()
    log.events = []
    return log


def drive_ab(cfg, observers, n=250, seed=3, attach_late=()):
    oram = build_oram(cfg, seed=seed, observers=observers)
    for obs in attach_late:
        oram.add_observer(obs)
    oram.warm_fill()
    rng = np.random.default_rng(seed)
    for _ in range(n):
        oram.access(int(rng.integers(cfg.n_real_blocks)))
    return oram


class TestPerHookDispatch:
    """An event reaches exactly the observers that override its hook,
    each of which sees what it saw when every event reached everyone."""

    #: sha256 over the full event list of ``drive_ab`` with one
    #: all-hooks log attached, recorded (over these four hooks) at the
    #: commit where reshuffle reclaims were still a batched hook fanned
    #: out per slot.
    FULL_LOG_DIGEST = (
        "4773e4f45b7cc14191092b220faed15e5964fd1d6e83b371969b98ac62194910"
    )

    @staticmethod
    def _digest(events):
        import hashlib
        import json
        return hashlib.sha256(json.dumps(events).encode()).hexdigest()

    def test_full_event_list_is_the_recorded_one(self, cfg_ab_small):
        log = event_log(*HOOKS)
        drive_ab(cfg_ab_small, [log])
        assert {hook for hook, _ in log.events} == set(HOOKS)
        assert self._digest(log.events) == self.FULL_LOG_DIGEST

    def test_same_events_beside_an_attacker(self, cfg_ab_small):
        from repro.core.security import GuessingAttacker
        alone = event_log(*HOOKS)
        drive_ab(cfg_ab_small, [alone])
        for order in (0, 1):
            beside = event_log(*HOOKS)
            attacker = GuessingAttacker(cfg_ab_small.levels, seed=1)
            pair = [attacker, beside] if order else [beside, attacker]
            drive_ab(cfg_ab_small, pair)
            assert beside.events == alone.events
            assert attacker.guesses > 0

    def test_one_hook_observer_sees_that_hooks_events(self, cfg_ab_small):
        """Every single-hook observer, all riding one run beside the
        all-hooks log, sees exactly the log's entries for its hook."""
        full = event_log(*HOOKS)
        singles = {hook: event_log(hook) for hook in HOOKS}
        oram = drive_ab(cfg_ab_small, [full, *singles.values()])
        assert oram.observers == [full, *singles.values()]
        for hook in HOOKS:
            assert singles[hook].events == [
                e for e in full.events if e[0] == hook
            ], hook

    def test_add_observer_is_the_constructor_argument(self, cfg_ab_small):
        given, added = event_log(*HOOKS), event_log(*HOOKS)
        drive_ab(cfg_ab_small, [given])
        drive_ab(cfg_ab_small, [], attach_late=[added])
        assert added.events == given.events

    def test_instance_and_duck_typed_hooks_are_heard(self, cfg_small):
        patched = BaseObserver()
        seen = []
        patched.on_access_start = seen.append

        class Duck:                      # no BaseObserver in sight
            def __getattr__(self, name):
                if not name.startswith("on_"):
                    raise AttributeError(name)
                return lambda *args: seen.append(name)

        oram = build_oram(cfg_small, seed=0, observers=[patched, Duck()])
        for i in range(2 * cfg_small.evict_rate):
            oram.access(i % cfg_small.n_real_blocks)
        assert [e for e in seen if isinstance(e, int)], "instance hook unheard"
        assert {"on_access_start", "on_read_path", "on_slot_dead",
                "on_slot_reclaimed"} <= set(seen)

    def test_served_run_calls_no_unheard_hook(self, monkeypatch):
        """``build_stack`` attaches a GuessingAttacker, which overrides
        ``on_read_path`` only: a served run reaches no other hook."""
        from repro.serve import BatchScheduler, build_stack
        from repro.serve.loadgen import (
            WorkloadConfig, generate_requests, initial_items,
        )
        from repro.serve.replay import replay

        def unheard(hook):
            def raiser(self, *args):
                raise AssertionError(f"BaseObserver.{hook} was called")
            return raiser

        for hook in HOOKS:
            monkeypatch.setattr(BaseObserver, hook, unheard(hook))
        stack = build_stack(levels=8, seed=0)
        load = WorkloadConfig("unheard", n_requests=150, stored_keys=40,
                              read_fraction=0.7, seed=5)
        stack.kv.preload(initial_items(load))
        reqs = generate_requests(load)
        sched = BatchScheduler(stack.kv, policy="batch", seed=0,
                               clock=lambda: stack.dram_sink.now)
        result = replay(stack, reqs, sched, 8)
        assert len(result.completions) == len(reqs)
        oram = stack.kv.oram
        assert oram.evict_counter > 0
        assert int(oram.store.reshuffles_by_level.sum()) > oram.evict_counter
        assert stack.attacker.guesses > 0
