"""Event-kernel equivalence: a fixed set of runs replays to a recorded trace.

`tests/data/kernel_trace.txt` holds, for each scenario below, the run's
`export_text()`, every PE program's return value, the final simulated
time, the trace's side tables (collective instances, quiet spans,
acknowledgment values) and the message of a deadlock. Any change to the event kernel (queue order, tie breaking, jitter
draws, waiter wake-up order) that moves one event shows up as a diff.
Regenerate the file only in a change meant to alter simulated results:

    PYTHONPATH=src python tests/test_kernel.py --write

Every scenario also runs with each payload lent and with each copied, and
the two runs must show the same trace, results, time and heaps.
"""

import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shmembench import (ClockModel, DeadlockError, NetworkModel, PgasWorld,
                        ProgressMode, PutReturnPolicy, measure_bcast_sk)
from shmembench.pgas import (BARRIER_REDUCE_BCAST, BCAST_LINEAR,
                             SimulationError, idle)
from shmembench.trace import POST, REMOTE_DELIVERED, GroundTruthTrace

from helpers import lent_and_copied

GOLDEN = Path(__file__).parent / "data" / "kernel_trace.txt"

NET = NetworkModel(o_s=1e-7, o_r=1.5e-7, L=1e-6, g=5e-8, G=1e-9)
JITTER = NetworkModel(o_s=1e-7, o_r=1.5e-7, L=1e-6, g=5e-8, G=1e-9,
                      jitter_half_width=3e-7)


def _jittered_wire():
    def prog(pe):
        me, P = pe.rank, pe.world.npes
        right = (me + 1) % P
        for i in range(3):
            yield from pe.put(right, 64 * i, 8 * (i + 1), src_offset=1024)
            t = yield from pe.stamp_begin()
            yield from pe.get(right, 256, 16 * i)
            yield from pe.advance(1e-7 * me)
        yield from pe.quiet()
        return t

    w = PgasWorld(3, JITTER, jitter_seed=17)
    return w, [prog] * 3


def _broadcasts(topology, net, npes, seed):
    def prog(pe):
        out = []
        for root, nbytes in ((0, 64), (npes - 1, 0), (1, 4096)):
            yield from pe.advance(1e-7 * ((pe.rank * 3) % npes))
            yield from pe.broadcast(root, 0, nbytes)
            out.append(pe.world.now)
        return out

    w = PgasWorld(npes, net, jitter_seed=seed,
                  bcast_topology=topology)
    return w, [prog] * npes


def _barriers(algo, root):
    def prog(pe):
        for i in range(3):
            yield from pe.busy_wait(2.5e-7 * ((pe.rank + i) % 4))
            yield from pe.barrier()
        return pe.world.now

    w = PgasWorld(5, JITTER, jitter_seed=5,
                  barrier_algo=algo, barrier_root=root)
    return w, [prog] * 5


def _locks():
    def prog(pe):
        got = []
        if pe.rank == 2:
            got.append((yield from pe.lock_test(8, home=1)))
        for _ in range(2):
            yield from pe.lock_set(8, home=1)
            yield from pe.advance(4e-7)
            yield from pe.lock_clear(8, home=1)
        got.append((yield from pe.lock_test(8, home=1)))
        if got[-1]:
            yield from pe.lock_clear(8, home=1)
        return got

    w = PgasWorld(3, NET)
    return w, [prog] * 3


def _nbi_on_quiet():
    net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9, g=1e-7,
                       progress_mode=ProgressMode.ON_QUIET,
                       put_return_policy=PutReturnPolicy.REMOTE_COMPLETION)

    def prog(pe):
        if pe.rank:
            return None
        ops = [(yield from pe.put_nbi(1, 0, 128)),
               (yield from pe.get_nbi(1, 512, 64, dst_offset=2048)),
               (yield from pe.put_nbi(1, 4096, 8, src_offset=8))]
        waited = yield from pe.busy_wait(3e-7)
        ops.append((yield from pe.quiet()))
        ops.append((yield from pe.put(1, 8192, 32)))
        return ops, waited

    w = PgasWorld(2, net)
    return w, [prog] * 2


def _nbi_background():
    net = NetworkModel(o_s=1e-7, o_r=1.5e-7, L=1e-6, g=5e-8, G=1e-9,
                       jitter_half_width=3e-7,
                       progress_mode=ProgressMode.BACKGROUND)

    def prog(pe):
        me, P = pe.rank, pe.world.npes
        right, left = (me + 1) % P, (me - 1) % P
        pe.store_int(1024, 100 + me)
        pe.store_int(2048, 200 + me)
        ops = [(yield from pe.put_nbi(right, 64, 8, src_offset=1024)),
               (yield from pe.get_nbi(left, 2048, 8, dst_offset=512)),
               (yield from pe.put_nbi(left, 128, 16, src_offset=1024))]
        yield from pe.advance(1e-7 * me)
        ops.append((yield from pe.get_nbi(right, 1024, 8, dst_offset=768)))
        ops.append((yield from pe.quiet()))
        return ops, [pe.load_int(off) for off in (64, 128, 512, 768)]

    w = PgasWorld(3, net, jitter_seed=29)
    return w, [prog] * 3


def _single_pe():
    def prog(pe):
        pe.store_int(0, 7)
        yield from pe.barrier()
        yield from pe.broadcast(0, 0, 64)
        yield from pe.put(0, 256, 8, src_offset=0)
        before = pe.load_int(256)
        yield from pe.quiet()
        yield from pe.barrier()
        return before, pe.load_int(256), pe.world.now

    return PgasWorld(1, JITTER, jitter_seed=31), [prog]


def _fetch_inc_wait_until():
    def prog(pe):
        if pe.rank == 0:
            yield from pe.wait_until(0, "ge", 3)
            yield from pe.wait_until(8, "eq", 1)
            return pe.load_int(0)
        yield from pe.advance(2e-7 * pe.rank)
        pre = yield from pe.fetch_inc(0, 0)
        if pre == 2:
            yield from pe.fetch_inc(0, 8)
        return pre

    w = PgasWorld(4, JITTER, jitter_seed=23)
    return w, [prog] * 4


def _remote_clock():
    clock = ClockModel(npes=3, drift_rate=(0.0, 1e-5, -2e-5),
                       initial_offset=(0.0, 3e-6, -1e-6),
                       timer_overhead=3e-8)

    def prog(pe):
        if pe.rank:
            return None
        seen = []
        for target in (1, 2, 1):
            seen.append((yield from pe.fetch_remote_clock(target)))
            seen.append((yield from pe.stamp_begin()))
        return seen

    w = PgasWorld(3, JITTER, clock, jitter_seed=41)
    return w, [prog] * 3


def _deadlock():
    """Each PE ends blocked in a different wait: broadcast data that no
    root sends, a cell no one writes, a lock another PE keeps."""
    def prog(pe):
        if pe.rank == 0:
            yield from pe.broadcast(2, 0, 64)
        elif pe.rank == 1:
            yield from pe.fetch_inc(0, 8)
            yield from pe.wait_until(8, "ge", 5)
        elif pe.rank == 2:
            yield from pe.lock_set(0, home=3)
            yield from pe.wait_until(16, "eq", 1)
        else:
            yield from pe.advance(1e-6)
            yield from pe.lock_set(0, home=3)

    w = PgasWorld(4, JITTER, jitter_seed=3)
    return w, [prog] * 4


def _zero_cost_wire(algo, topology):
    """Every cost is zero, so deliveries, wakes and advances tie at one
    instant and run in queue order."""
    def prog(pe):
        me, P = pe.rank, pe.world.npes
        right, left = (me + 1) % P, (me - 1) % P
        pe.store_int(0, 10 + me)
        yield from pe.put(right, 8, 8, src_offset=0)
        ops = [(yield from pe.put_nbi(left, 16, 8, src_offset=0)),
               (yield from pe.get_nbi(right, 0, 8, dst_offset=24))]
        yield from pe.barrier()
        yield from pe.broadcast(2, 0, 32)
        if me == 0:
            yield from pe.wait_until(40, "ge", P - 1)
        else:
            ops.append((yield from pe.fetch_inc(0, 40)))
        yield from pe.advance(1e-6 * (me % 2))
        yield from pe.lock_set(48, home=3)
        ops.append((yield from pe.lock_test(56, home=1)))
        yield from pe.lock_clear(48, home=3)
        ops.append((yield from pe.stamp_begin()))
        yield from pe.get(left, 8, 8, dst_offset=64)
        ops.append((yield from pe.quiet()))
        yield from pe.barrier()
        return ops, [pe.load_int(off) for off in (8, 16, 24, 40, 64)]

    w = PgasWorld(4, NetworkModel(), barrier_algo=algo, barrier_root=1,
                  bcast_topology=topology)
    return w, [prog] * 4


def _deadlock_in_flight():
    """PEs block in a barrier round, a get, a quiet, a remote-completion
    put, a fetch_inc, a remote clock fetch, a lock_test and a lock_clear;
    at 9.5 us every message in flight is lost (the timed queue is emptied),
    so none of them is ever woken. The heap is small, so PE 0's store
    allocates every PE's heap whether payloads are lent or copied."""
    net = NetworkModel(o_s=1e-7, o_r=1.5e-7, L=1e-6, g=5e-8, G=1e-9,
                       put_return_policy=PutReturnPolicy.REMOTE_COMPLETION)

    def prog(pe):
        me = pe.rank
        if me == 0:
            pe.store_int(128, 1)
            yield from pe.barrier()
            return
        if me == 7:
            yield from pe.lock_set(32, home=8)
        if me == 8:
            yield from pe.advance(9.5e-6)
            pe.world._queue.clear()
            return
        yield from pe.advance(9e-6 - pe.world.now)
        if me == 1:
            yield from pe.get(2, 0, 16)
        elif me == 2:
            yield from pe.put_nbi(3, 0, 8)
            yield from pe.quiet()
        elif me == 3:
            yield from pe.put(4, 64, 8)
        elif me == 4:
            yield from pe.fetch_inc(5, 8)
        elif me == 5:
            yield from pe.fetch_remote_clock(6)
        elif me == 6:
            yield from pe.lock_test(16, home=7)
        else:
            yield from pe.lock_clear(32, home=8)

    w = PgasWorld(9, net, jitter_seed=13,
                  heap_size=4096)
    return w, [prog] * 9


def _deadlock_reduce_bcast():
    """PE 3 never enters the barrier: its root waits in the reduce and
    the PEs that entered wait for the release."""
    def prog(pe):
        if pe.rank != 3:
            yield from pe.barrier()

    w = PgasWorld(4, NET, barrier_algo=BARRIER_REDUCE_BCAST, barrier_root=1)
    return w, [prog] * 4


SCENARIOS = {
    "jittered_wire": _jittered_wire,
    "bcast_linear": lambda: _broadcasts(BCAST_LINEAR, NET, 4, 0),
    "bcast_binomial_jitter": lambda: _broadcasts("binomial", JITTER, 6, 9),
    "barrier_dissemination": lambda: _barriers("dissemination", 0),
    "barrier_reduce_bcast": lambda: _barriers(BARRIER_REDUCE_BCAST, 2),
    "lock_contended_and_test": _locks,
    "nbi_on_quiet_put_remote": _nbi_on_quiet,
    "nbi_background_jitter": _nbi_background,
    "single_pe": _single_pe,
    "fetch_inc_wait_until": _fetch_inc_wait_until,
    "fetch_remote_clock": _remote_clock,
    "deadlock": _deadlock,
    "zero_cost_wire": lambda: _zero_cost_wire("dissemination", "binomial"),
    "zero_cost_wire_reduce_linear": lambda: _zero_cost_wire(
        BARRIER_REDUCE_BCAST, BCAST_LINEAR),
    "deadlock_in_flight": _deadlock_in_flight,
    "deadlock_reduce_bcast": _deadlock_reduce_bcast,
}


def kernel_trace_text() -> str:
    parts = []
    for name, build in SCENARIOS.items():
        w, programs = build()
        try:
            w.run(programs)
            end = ""
        except DeadlockError as e:
            end = f"{e}\n"
        t = w.trace
        parts.append(f"== {name}\n{t.export_text()}"
                     f"returned {w.returned!r}\nnow {w.now!r}\n"
                     f"bcast {t.bcast_instances!r}\n"
                     f"barrier {t.barrier_instances!r}\n"
                     f"quiet {t.quiet_spans!r}\nack {t.ack_values!r}\n{end}")
    return "".join(parts)


def test_kernel_trace_matches_golden():
    assert kernel_trace_text() == GOLDEN.read_text()


@pytest.mark.parametrize("name", SCENARIOS)
def test_lending_changes_nothing_observable(name, monkeypatch):
    lent, copied = lent_and_copied(SCENARIOS[name], monkeypatch)
    assert lent == copied


class TestTies:
    """An advance that ends exactly at the next queued event's time runs
    after that event, since the event was queued first."""

    def test_pe_advance_tied_with_another_pe_runs_in_queue_order(self):
        order = []

        def prog(pe):
            yield from pe.advance(1.0)
            order.append(pe.rank)

        PgasWorld(2, NetworkModel()).run([prog, prog])
        assert order == [0, 1]

    def test_advance_tied_with_a_delivery_runs_after_it(self):
        def prog(pe):
            yield from pe.put(0, 0, 8)        # delivered at exactly 0.5
            yield from pe.advance(0.5)
            yield from pe.put(0, 8, 8)

        w = PgasWorld(1, NetworkModel(L=0.5))
        w.run([prog])
        events = [(e.t_global, e.kind, e.op_id) for e in w.trace.entries
                  if e.kind in (POST, REMOTE_DELIVERED)]
        assert events == [(0.0, POST, "op0"), (0.5, REMOTE_DELIVERED, "op0"),
                          (0.5, POST, "op1"), (1.0, REMOTE_DELIVERED, "op1")]


@pytest.mark.parametrize("name", [name for name in SCENARIOS
                                  if not name.startswith("deadlock")])
def test_completed_run_leaves_every_mailbox_empty(name):
    """A consumed control message, and a wait it ended, leave no key
    behind."""
    w, programs = SCENARIOS[name]()
    w.run(programs)
    assert w._mail == [{} for _ in range(w.npes)]


def test_acknowledged_broadcasts_leave_every_mailbox_empty():
    world = PgasWorld(8, JITTER, jitter_seed=3)
    w = measure_bcast_sk(world, 64, M=2).world
    assert w._mail == [{}] * 8


class TestRequests:
    """A PE yields a number, the seconds it computes for, or a wait."""

    @pytest.mark.parametrize("bad", [None, True, False, "1e-6", b"", [1e-6]])
    def test_anything_else_raises_naming_the_pe(self, bad):
        def prog(pe):
            yield 1e-6
            yield bad

        with pytest.raises(SimulationError, match=(
                r"^PE 1 yielded unexpected value " + re.escape(repr(bad)))):
            PgasWorld(2, NetworkModel()).run([idle, prog])

    @pytest.mark.parametrize("dt", [0, 0.0, -0.0, -1e-6, -3])
    def test_advance_of_zero_or_less_moves_neither_now_nor_the_queue(self,
                                                                     dt):
        def state(w):
            return w.now, w._seq, list(w._queue), list(w._ready)

        def prog(pe):
            yield from pe.advance(5e-7)
            before = state(pe.world)
            yield dt
            return before == state(pe.world)

        def other(pe):
            yield from pe.advance(5e-7)     # queued, due as PE 0 yields dt

        w = PgasWorld(2, NetworkModel())
        w.run([prog, other])
        assert w.returned[0] is True

    @pytest.mark.parametrize("dt", [1, 0.5, Fraction(1, 4)])
    def test_any_real_number_advances(self, dt):
        def prog(pe):
            yield dt
            return pe.world.now

        w = PgasWorld(1, NetworkModel())
        w.run([prog])
        assert w.returned == [float(dt)]


@pytest.mark.parametrize("hw", [2e-7, 3e-6])   # 3 us clamps some at 0
def test_jitter_draws_follow_random_uniform(hw):
    """Each jittered message's wire latency is `max(0, L + uniform(-w, w))`
    from a `random.Random(jitter_seed)` stream, one draw per message in
    order."""
    seed, n = 1234, 10_000
    net = NetworkModel(L=1e-6, jitter_half_width=hw)
    w = PgasWorld(1, net, jitter_seed=seed)
    arrivals = []
    for _ in range(n):
        w._inject(0, 0.0, 0, None)
        arrivals.append(w._queue.pop()[0])
    rng = random.Random(seed)
    assert arrivals == [max(0.0, net.L + rng.uniform(-hw, hw))
                        for _ in range(n)]


def test_op_events_index_entries_recorded_after_a_query():
    trace = GroundTruthTrace()
    trace.record(1.0, 0, POST, "op0")
    assert trace.op_events == {"op0": {POST: 1.0}}
    trace.record(2.0, 1, REMOTE_DELIVERED, "op0")
    trace.record(3.0, 0, POST, "op0")  # the last event of a kind wins
    assert trace.op_events == {"op0": {POST: 3.0, REMOTE_DELIVERED: 2.0}}
    assert trace.op_elapsed("op0") == -1.0
    assert trace.entries[0] == (1.0, 0, POST, "op0")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(kernel_trace_text())
