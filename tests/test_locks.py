"""Global-lock semantics: cost, FIFO handoff, mutual exclusion."""

import pytest

from shmembench import LockError, NetworkModel, PgasWorld
from shmembench.trace import LOCK_ACQUIRED, LOCK_RELEASED

NET = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6)
LEG = NET.o_s + NET.L + NET.o_r


class TestLockBasics:
    def test_uncontended_remote_set_is_one_round_trip(self):
        out = {}

        def prog(pe):
            t0 = pe.world.now
            yield from pe.lock_set(0, home=1)
            out["dt"] = pe.world.now - t0
            yield from pe.lock_clear(0, home=1)

        world = PgasWorld(2, NET)
        world.run([prog, lambda pe: iter(())])
        assert out["dt"] == pytest.approx(2 * LEG, rel=1e-12)

    def test_home_pe_set_pays_self_latency(self):
        out = {}

        def prog(pe):
            t0 = pe.world.now
            yield from pe.lock_set(0, home=0)
            out["dt"] = pe.world.now - t0
            yield from pe.lock_clear(0, home=0)

        world = PgasWorld(1, NET)
        world.run([prog])
        assert out["dt"] == pytest.approx(2 * LEG, rel=1e-12)

    def test_test_on_held_lock_false_same_round_trip(self):
        out = {}

        def holder(pe):
            yield from pe.lock_set(0, home=0)
            yield from pe.busy_wait(1e-3)
            yield from pe.lock_clear(0, home=0)

        def tester(pe):
            yield from pe.busy_wait(10 * LEG)  # let the holder acquire first
            t0 = pe.world.now
            ok = yield from pe.lock_test(0, home=0)
            out["ok"] = ok
            out["dt"] = pe.world.now - t0

        world = PgasWorld(2, NET)
        world.run([holder, tester])
        assert out["ok"] is False
        assert out["dt"] == pytest.approx(2 * LEG, rel=1e-12)

    def test_test_on_free_lock_acquires(self):
        out = {}

        def prog(pe):
            out["ok"] = yield from pe.lock_test(0, home=1)
            yield from pe.lock_clear(0, home=1)

        world = PgasWorld(2, NET)
        world.run([prog, lambda pe: iter(())])
        assert out["ok"] is True

    def test_clear_by_non_holder_rejected(self):
        def prog(pe):
            yield from pe.lock_clear(0, home=0)

        world = PgasWorld(1, NET)
        with pytest.raises(LockError):
            world.run([prog])


class TestLockContention:
    def _contended_trace(self, npes, rounds=3, jitter=0.0, seed=0):
        net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6,
                           jitter_half_width=jitter)
        world = PgasWorld(npes, net, jitter_seed=seed)

        def prog(pe):
            for _ in range(rounds):
                yield from pe.lock_set(0, home=0)
                yield from pe.busy_wait(5e-7)
                yield from pe.lock_clear(0, home=0)

        return world.run([prog] * npes)

    def test_acquire_release_strictly_alternate(self):
        trace = self._contended_trace(4, jitter=3e-7, seed=11)
        kinds = [e.kind for e in trace.entries
                 if e.kind in (LOCK_ACQUIRED, LOCK_RELEASED)]
        assert kinds[0] == LOCK_ACQUIRED
        for a, b in zip(kinds, kinds[1:]):
            assert a != b

    def test_every_acquire_is_eventually_released(self):
        trace = self._contended_trace(4)
        acq = len(trace.events_of_kind(LOCK_ACQUIRED))
        rel = len(trace.events_of_kind(LOCK_RELEASED))
        assert acq == rel == 12

    def test_fifo_handoff_order(self):
        # with staggered arrival, grant order equals request order
        net = NET

        def prog(pe):
            yield from pe.busy_wait(pe.rank * 10 * LEG)
            yield from pe.lock_set(0, home=0)
            yield from pe.busy_wait(1e-3)  # hold long enough to queue everyone
            yield from pe.lock_clear(0, home=0)

        world = PgasWorld(4, net)
        trace = world.run([prog] * 4)
        order = [e.pe for e in trace.events_of_kind(LOCK_ACQUIRED)]
        assert order == [0, 1, 2, 3]
