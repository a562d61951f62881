"""Simulator-level tests: RMA semantics, quiet, atomics, determinism."""

import ast
import gc
import tracemalloc
from pathlib import Path

import pytest

from shmembench import (ClockModel, DeadlockError, HeapFault, NetworkModel,
                        PgasWorld, ProgressMode, PutReturnPolicy, run_fresh)
from shmembench import pgas
from shmembench.pgas import DEFAULT_HEAP_SIZE, PER_PE_HEAP_MIN, idle
from shmembench import trace as _tr
from shmembench.trace import (ACK_INC, LOCAL_COMPLETE, POST, QUIET_DONE,
                              REMOTE_DELIVERED)

from helpers import lent_and_copied

NET = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9)
LEG = NET.o_s + NET.L + NET.o_r  # zero-payload one-way cost


def run2(net, prog0, prog1=None, **kw):
    world = PgasWorld(2, net, **kw)
    idle = lambda pe: iter(())
    trace = world.run([prog0, prog1 or idle])
    return world, trace


class TestBlockingGet:
    def test_zero_cost_network_returns_instantly(self):
        out = {}

        def prog(pe):
            yield from pe.get(1, 0, 0)
            out["t"] = pe.world.now

        run2(NetworkModel(), prog)
        assert out["t"] == 0.0

    def test_round_trip_hand_sum(self):
        # request leg o_s+L+o_r, response leg o_s+L+G*n+o_r
        out = {}

        def prog(pe):
            yield from pe.get(1, 0, 8)
            out["t"] = pe.world.now

        net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6)
        run2(net, prog)
        assert out["t"] == pytest.approx(2.4e-6, rel=1e-12)

    def test_get_moves_data(self):
        def prog(pe):
            yield from pe.get(1, 64, 8)
            assert pe.load_int(64) == 4242

        def target(pe):
            pe.store_int(64, 4242)
            return
            yield

        world = PgasWorld(2, NET)
        world.run([prog, target])

    def test_get_elapsed_matches_transfer_formula(self):
        out = {}

        def prog(pe):
            t0 = pe.world.now
            yield from pe.get(1, 0, 4096)
            out["dt"] = pe.world.now - t0

        run2(NET, prog)
        expect = NET.transfer_duration(0) + NET.transfer_duration(4096)
        assert out["dt"] == pytest.approx(expect, rel=1e-12)

    def test_out_of_range_access_faults(self):
        def prog(pe):
            yield from pe.get(1, pe.world.heap_size - 4, 8)

        with pytest.raises(HeapFault):
            run2(NET, prog)


class TestBlockingPut:
    def test_local_completion_returns_before_delivery(self):
        out = {}

        def prog(pe):
            op = yield from pe.put(1, 0, 1024)
            out["ret"] = pe.world.now
            out["op"] = op

        world, trace = run2(NET, prog)
        ev = trace.op_events[out["op"]]
        assert out["ret"] == pytest.approx(NET.o_s + NET.G * 1024, rel=1e-12)
        assert ev[LOCAL_COMPLETE] < ev[REMOTE_DELIVERED]
        assert ev[REMOTE_DELIVERED] == pytest.approx(
            NET.o_s + NET.L + NET.G * 1024 + NET.o_r, rel=1e-12)

    def test_remote_completion_blocks_until_delivery(self):
        out = {}

        def prog(pe):
            yield from pe.put(1, 0, 1024)
            out["ret"] = pe.world.now

        net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9,
                           put_return_policy=PutReturnPolicy.REMOTE_COMPLETION)
        run2(net, prog)
        assert out["ret"] == pytest.approx(net.transfer_duration(1024), rel=1e-12)

    def test_self_target_pays_full_cost(self):
        out = {}

        def prog(pe):
            yield from pe.get(0, 0, 8)
            out["t"] = pe.world.now

        world = PgasWorld(1, NET)
        world.run([prog])
        assert out["t"] == pytest.approx(
            NET.transfer_duration(0) + NET.transfer_duration(8), rel=1e-12)


class TestNonBlocking:
    def test_post_cost_is_send_overhead_regardless_of_size(self):
        for n in (1, 1 << 20):
            out = {}

            def prog(pe):
                yield from pe.put_nbi(1, 0, n)
                out["t"] = pe.world.now
                yield from pe.quiet()

            run2(NET, prog)
            assert out["t"] == pytest.approx(NET.o_s, rel=1e-12)

    def test_background_quiet_after_wait_is_cheap(self):
        out = {}

        def prog(pe):
            yield from pe.put_nbi(1, 0, 8)
            yield from pe.busy_wait(10 * NET.transfer_duration(8))
            t0 = pe.world.now
            yield from pe.quiet()
            out["dt"] = pe.world.now - t0

        run2(NET, prog)
        assert out["dt"] == pytest.approx(NET.q0, rel=1e-12)

    def test_onquiet_quiet_carries_the_transfer(self):
        out = {}

        def prog(pe):
            yield from pe.put_nbi(1, 0, 4096)
            yield from pe.busy_wait(10 * NET.transfer_duration(4096))
            t0 = pe.world.now
            yield from pe.quiet()
            out["dt"] = pe.world.now - t0

        net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9,
                           progress_mode=ProgressMode.ON_QUIET)
        run2(net, prog)
        # q0 + L + G*n + o_r: o_s was already charged at post time
        assert out["dt"] == pytest.approx(
            net.q0 + net.L + net.G * 4096 + net.o_r, rel=1e-12)

    def test_empty_quiet_costs_q0(self):
        out = {}

        def prog(pe):
            t0 = pe.world.now
            qid = yield from pe.quiet()
            out["dt"] = pe.world.now - t0
            out["qid"] = qid

        world, trace = run2(NET, prog)
        assert out["dt"] == pytest.approx(NET.q0, rel=1e-12)
        assert trace.quiet_elapsed(out["qid"]) == pytest.approx(NET.q0, rel=1e-12)

    def test_quiet_completeness(self):
        # no remote_delivered for a PE's ops after its covering quiet_done
        def prog(pe):
            for _ in range(4):
                yield from pe.put_nbi(1, 0, 256)
            yield from pe.quiet()

        world, trace = run2(NET, prog)
        t_quiet = trace.events_of_kind(QUIET_DONE)[0].t_global
        for ev in trace.events_of_kind(REMOTE_DELIVERED):
            assert ev.t_global <= t_quiet

    def test_onquiet_get_nbi_delivered_in_quiet(self):
        def prog(pe):
            yield from pe.get_nbi(1, 64, 8)
            assert pe.load_int(64) == 0
            yield from pe.quiet()
            assert pe.load_int(64) == 99

        def target(pe):
            pe.store_int(64, 99)
            return
            yield

        net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6,
                           progress_mode=ProgressMode.ON_QUIET)
        world = PgasWorld(2, net)
        world.run([prog, target])


class TestAtomicsAndWait:
    def test_fetch_inc_returns_previous_value(self):
        out = []

        def prog(pe):
            out.append((yield from pe.fetch_inc(1, 0)))
            out.append((yield from pe.fetch_inc(1, 0)))

        world, _ = run2(NET, prog)
        assert out == [0, 1]
        assert world._heap_read_int(1, 0) == 2

    def test_fetch_inc_round_trip_cost(self):
        out = {}

        def prog(pe):
            t0 = pe.world.now
            yield from pe.fetch_inc(1, 0)
            out["dt"] = pe.world.now - t0

        net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6)
        run2(net, prog)
        assert out["dt"] == pytest.approx(2 * LEG, rel=1e-12)

    def test_wait_until_already_satisfied_returns_immediately(self):
        out = {}

        def prog(pe):
            pe.store_int(0, 5)
            yield from pe.wait_until(0, "ge", 5)
            out["t"] = pe.world.now

        run2(NET, prog)
        assert out["t"] == 0.0

    def test_waiter_wakes_at_remote_apply_instant(self):
        out = {}

        def waiter(pe):
            yield from pe.wait_until(0, "eq", 1)
            out["wake"] = pe.world.now

        def incrementer(pe):
            yield from pe.busy_wait(5e-6)
            yield from pe.fetch_inc(0, 0)

        world = PgasWorld(2, NET)
        trace = world.run([waiter, incrementer])
        t_apply = trace.events_of_kind(ACK_INC)[0].t_global
        assert out["wake"] == t_apply

    def test_unsatisfied_wait_reports_deadlock(self):
        def prog(pe):
            yield from pe.wait_until(0, "eq", 1)

        world = PgasWorld(2, NET)
        with pytest.raises(DeadlockError) as ei:
            world.run([prog, lambda pe: iter(())])
        assert 0 in ei.value.blocked


class TestDeterminism:
    def _trace_text(self, seed):
        net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9,
                           jitter_half_width=2e-7)
        world = PgasWorld(4, net, ClockModel.ideal(4, jitter_seed=seed))

        def prog(pe):
            yield from pe.barrier()
            if pe.rank == 0:
                yield from pe.put(1, 0, 64)
                yield from pe.fetch_inc(2, 0)
            yield from pe.broadcast(0, 128, 32)
            yield from pe.barrier()

        return world.run([prog] * 4).export_text()

    def test_same_seed_identical_traces(self):
        assert self._trace_text(7) == self._trace_text(7)

    def test_different_seed_differs(self):
        assert self._trace_text(7) != self._trace_text(8)

    def test_empty_programs_empty_trace(self):
        world = PgasWorld(3, NET)
        trace = world.run([lambda pe: iter(())] * 3)
        assert trace.entries == []

    def test_world_runs_once(self):
        world = PgasWorld(1, NET)
        world.run([lambda pe: iter(())])
        with pytest.raises(Exception):
            world.run([lambda pe: iter(())])


class TestRunFresh:
    """`run_fresh` runs one program on a copy of a template world and keeps
    what each PE program returned."""

    @staticmethod
    def _rank_after_a_put(pe):
        yield from pe.put((pe.rank + 1) % pe.world.npes, 0, 8)
        return pe.rank * 10

    def test_returned_holds_each_program_value(self):
        world = PgasWorld(3, NET)
        world.run([self._rank_after_a_put, idle, self._rank_after_a_put])
        assert world.returned == [0, None, 20]

    def test_template_stays_unrun_and_other_ranks_idle(self):
        template = PgasWorld(3, NET)
        w = run_fresh(template, self._rank_after_a_put, ranks=(1,))
        assert w is not template and w.npes == 3
        assert w.returned == [None, 10, None]
        assert {e.pe for e in w.trace.entries} == {1}  # only PE 1 put
        assert template.returned == [None] * 3 and not template.trace.entries
        template.run([idle] * 3)  # still runnable: the run used a copy
        assert run_fresh(template, self._rank_after_a_put).returned == [
            0, 10, 20]

    def test_deadlock_still_raises(self):
        def prog(pe):
            yield from pe.wait_until(0, "eq", 1)

        with pytest.raises(DeadlockError) as ei:
            run_fresh(PgasWorld(2, NET), prog, ranks=(1,))
        assert set(ei.value.blocked) == {1}


def _traced(fn):
    """`fn()`, the bytes it still holds on return and its peak, by
    tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


class TestHeapOnFirstAccess:
    """Each PE's symmetric heap is allocated and zeroed on that PE's first
    access; a world that never touches memory holds none, and a run holds
    heaps only for the PEs it addresses."""

    SMALL = 256 << 10  # far below one 2 MiB PE heap

    @staticmethod
    def _write(pe):
        pe.write_bytes(16, b"local!")
        yield from pe.put((pe.rank + 1) % pe.world.npes, 64, 8, src_offset=16)

    def test_negative_heap_size_rejected_when_built(self):
        with pytest.raises(ValueError, match="heap_size must be >= 0"):
            PgasWorld(2, NET, heap_size=-1)

    def test_building_a_world_and_its_fresh_copy_allocates_no_heap(self):
        def build():
            world = PgasWorld(8, NET)
            return world, world.fresh(jitter_seed=3)

        (world, copy), _, peak = _traced(build)
        assert world.heap_size == copy.heap_size == DEFAULT_HEAP_SIZE
        assert peak < self.SMALL

    def test_run_fresh_leaves_the_template_unallocated(self):
        def build_and_run():
            template = PgasWorld(4, NET)
            run = run_fresh(template, self._write)
            assert run.heap[1][64:70] == b"local!"
            return template

        template, held, peak = _traced(build_and_run)
        assert peak >= 4 * DEFAULT_HEAP_SIZE  # the run's own heap
        assert held < self.SMALL
        assert run_fresh(template, self._write).heap[2][64:70] == b"local!"

    def test_barrier_only_run_allocates_no_heap(self):
        def prog(pe):
            yield from pe.barrier()
            yield from pe.barrier()

        world, _, peak = _traced(lambda: run_fresh(PgasWorld(4, NET), prog))
        assert world.trace.entries and peak < self.SMALL

    def test_run_that_writes_sees_every_pe_heap_zeroed_plus_its_data(self):
        world, _, peak = _traced(lambda: PgasWorld(3, NET))
        assert peak < self.SMALL  # nothing until the run touches memory
        world.run([self._write, idle, idle])
        expect = [bytearray(DEFAULT_HEAP_SIZE) for _ in range(3)]
        expect[0][16:22] = expect[1][64:70] = b"local!"
        assert world.heap == {0: expect[0], 1: expect[1]}  # PE 2 untouched
        assert world.heap[2] == expect[2]

    def test_untouched_pe_reads_zeros(self):
        world = run_fresh(PgasWorld(3, NET), self._write, ranks=(0,))
        assert sorted(world.heap) == [0, 1]
        assert world.pe(2).read_bytes(0, DEFAULT_HEAP_SIZE) == bytes(
            DEFAULT_HEAP_SIZE)
        assert world.pe(2).load_int(DEFAULT_HEAP_SIZE - 8) == 0

    @pytest.mark.parametrize("heap_size", [8, DEFAULT_HEAP_SIZE])
    def test_access_past_heap_size_faults(self, heap_size):
        def fault_before_any_access():
            world = PgasWorld(2, NET, heap_size=heap_size)
            with pytest.raises(HeapFault):
                world.pe(1).store_int(heap_size, 1)

        _, _, peak = _traced(fault_before_any_access)
        assert peak < self.SMALL

        def prog(pe):
            pe.write_bytes(0, b"in")
            yield from pe.put(1, heap_size - 4, 8)

        world = PgasWorld(2, NET, heap_size=heap_size)
        with pytest.raises(HeapFault):
            world.run([prog, idle])
        # the put faults before PE 1's heap is touched, so only a heap
        # below PER_PE_HEAP_MIN, which comes for every PE at once, is there
        pes = [0] if heap_size >= PER_PE_HEAP_MIN else [0, 1]
        assert {pe: len(h) for pe, h in world.heap.items()} == dict.fromkeys(
            pes, heap_size)
        assert world.heap[0][:2] == b"in"

    @pytest.mark.parametrize("heap_size", [PER_PE_HEAP_MIN - 1,
                                           PER_PE_HEAP_MIN])
    def test_small_heaps_come_for_every_pe_at_once(self, heap_size):
        world = PgasWorld(4, NET, heap_size=heap_size)
        world.pe(2).store_int(8, 5)
        pes = [2] if heap_size >= PER_PE_HEAP_MIN else [0, 1, 2, 3]
        assert sorted(world.heap) == pes
        assert all(len(h) == heap_size for h in world.heap.values())
        assert world.pe(2).load_int(8) == 5 and world.pe(3).load_int(8) == 0


class TestTrace:
    def test_op_event_ordering_invariant(self):
        def prog(pe):
            yield from pe.put(1, 0, 128)
            yield from pe.put_nbi(1, 0, 128)
            yield from pe.quiet()
            yield from pe.get(1, 0, 128)

        world, trace = run2(NET, prog)
        for op, ev in trace.op_events.items():
            if POST in ev and REMOTE_DELIVERED in ev:
                assert ev[POST] <= ev.get(LOCAL_COMPLETE, ev[REMOTE_DELIVERED])
                assert ev.get(LOCAL_COMPLETE, ev[POST]) <= ev[REMOTE_DELIVERED]

    def test_export_format(self):
        def prog(pe):
            yield from pe.put(1, 0, 8)

        world, trace = run2(NET, prog)
        lines = trace.export_text().splitlines()
        assert len(lines) == len(trace.entries)
        for line in lines:
            t, pe, kind, op = line.split("\t")
            float(t)
            int(pe)
            assert kind in _tr.EVENT_KINDS
            # >= 12 significant digits
            assert len(t.split("e")[0].replace(".", "").replace("-", "")) >= 12


BIG = pgas.LEND_MIN  # the smallest payload that is lent
SRC, DST = 0, 1 << 20
OLD = bytes(i * 7 % 251 for i in range(2 * BIG))  # no period of 8
NEW = bytes(b ^ 0xFF for b in OLD)


def _in_flight(trace, op_id, t):
    """Whether time `t` falls after op `op_id` was posted and before its
    payload landed."""
    ev = trace.op_events[op_id]
    return ev[POST] < t < ev[REMOTE_DELIVERED]


# Each builder returns a world, its programs and a check of the run world.
# The payload of each case delivers the bytes its source held at send time,
# although the source is written before the payload lands.

def _put_then(nbytes, mutate):
    """PE 0 puts `nbytes` to PE 1, then `mutate`s its source."""
    def prog(pe):
        pe.write_bytes(SRC, OLD[:nbytes])
        op = yield from pe.put(1, DST, nbytes, src_offset=SRC)
        mutate(pe)
        return op, pe.world.now

    def check(world):
        op, ret = world.returned[0]
        # local-completion return: the source is reusable before delivery
        assert _in_flight(world.trace, op, ret)
        assert world.pe(1).read_bytes(DST, nbytes) == OLD[:nbytes]

    return PgasWorld(2, NET), [prog, idle], check


def _bcast_then_write(nbytes):
    """The root of a broadcast overwrites its buffer as soon as it
    returns."""
    def prog(pe):
        if pe.rank == 0:
            pe.write_bytes(SRC, OLD[:nbytes])
        yield from pe.broadcast(0, SRC, nbytes)
        if pe.rank == 0:
            pe.write_bytes(SRC, NEW[:nbytes])
        return pe.world.now

    def check(world):
        exits = world.trace.bcast_instances[0]["exit"]
        assert world.returned[0] < max(exits.values())
        for rank in (1, 2, 3):
            assert world.pe(rank).read_bytes(SRC, nbytes) == OLD[:nbytes]

    return PgasWorld(4, NET), [prog] * 4, check


def _nbi_racing(npes, racer, racer_time):
    """PE 0 sends a lent put to PE 1, then every PE runs `racer`, which
    writes PE 0's source while the put is in flight; `racer_time(world)` is
    when that write happened."""
    def prog(pe):
        op = None
        if pe.rank == 0:
            pe.write_bytes(SRC, OLD[:BIG])
            op = yield from pe.put_nbi(1, DST, BIG, src_offset=SRC)
        raced = yield from racer(pe)
        yield from pe.quiet()
        return op, raced

    def check(world):
        assert _in_flight(world.trace, world.returned[0][0],
                          racer_time(world))
        assert world.pe(1).read_bytes(DST, BIG) == OLD[:BIG]

    return PgasWorld(npes, NET), [prog] * npes, check


def _fetch_inc_racing():
    def racer(pe):
        if pe.rank == 1:
            yield from pe.fetch_inc(0, SRC + 16)

    return _nbi_racing(2, racer, lambda w: next(
        e.t_global for e in w.trace.entries if e.kind == ACK_INC))


def _put_racing():
    def racer(pe):
        if pe.rank == 1:
            pe.write_bytes(4096, NEW[:8])
            return (yield from pe.put(0, SRC + 24, 8, src_offset=4096))

    def landed(w):
        assert w.pe(0).read_bytes(SRC + 24, 8) == NEW[:8]
        return w.trace.op_events[w.returned[1][1]][REMOTE_DELIVERED]

    return _nbi_racing(2, racer, landed)


def _broadcast_racing():
    def racer(pe):
        if pe.rank == 2:
            pe.write_bytes(SRC, NEW[:8])
        yield from pe.broadcast(2, SRC, 8)

    def landed(w):
        assert w.pe(0).read_bytes(SRC, 8) == NEW[:8]
        return w.trace.bcast_instances[0]["exit"][0]

    return _nbi_racing(3, racer, landed)


def _self_put_overlapping():
    """Two lent puts from PE 0 to itself; the first lands on the second's
    source, and its own source and destination overlap."""
    def prog(pe):
        pe.write_bytes(0, OLD[:BIG + 8])
        first = yield from pe.put_nbi(0, 8, BIG, src_offset=0)
        second = yield from pe.put_nbi(0, 2 * BIG, BIG, src_offset=0)
        yield from pe.quiet()
        return first, second

    def check(world):
        first, second = world.returned[0]
        trace = world.trace
        assert _in_flight(trace, second,
                          trace.op_events[first][REMOTE_DELIVERED])
        assert world.pe(0).read_bytes(8, BIG) == OLD[:BIG]
        assert world.pe(0).read_bytes(2 * BIG, BIG) == OLD[:BIG]

    return PgasWorld(1, NET), [prog], check


WRITE_AT = 5e-6  # after a get's serve, before its payload lands


def _get_target_written():
    def prog(pe):
        return (yield from pe.get(1, SRC, BIG, dst_offset=DST))

    def target(pe):
        pe.write_bytes(SRC, OLD[:BIG])
        yield from pe.advance(WRITE_AT)
        pe.write_bytes(SRC, NEW[:BIG])

    def check(world):
        op = world.returned[0]
        assert world.trace.op_events[op][POST] + 2 * LEG < WRITE_AT
        assert _in_flight(world.trace, op, WRITE_AT)
        assert world.pe(0).read_bytes(DST, BIG) == OLD[:BIG]

    return PgasWorld(2, NET), [prog, target], check


RACES = {
    "write_bytes": lambda: _put_then(
        BIG, lambda pe: pe.write_bytes(SRC, NEW[:BIG])),
    "store_int": lambda: _put_then(
        BIG, lambda pe: pe.store_int(SRC + 8, -1)),
    "broadcast_root_write_bytes": lambda: _bcast_then_write(BIG),
    "fetch_inc": _fetch_inc_racing,
    "incoming_put": _put_racing,
    "incoming_broadcast": _broadcast_racing,
    "self_put_overlapping": _self_put_overlapping,
    "get_target_written": _get_target_written,
}
DATA_PATH = {
    "put_8": lambda: _put_then(8, lambda pe: pe.write_bytes(SRC, NEW[:8])),
    "broadcast_8": lambda: _bcast_then_write(8),
    **RACES,
}


def _run_checked(build):
    world, programs, check = build()
    world.run(programs)
    check(world)


class TestDataPath:
    def test_put_payload_is_taken_at_send_time(self):
        _run_checked(DATA_PATH["put_8"])

    def test_broadcast_payload_is_taken_at_send_time(self):
        _run_checked(DATA_PATH["broadcast_8"])

    @pytest.mark.parametrize("case", RACES)
    def test_write_racing_a_lent_payload(self, case):
        _run_checked(RACES[case])

    @pytest.mark.parametrize("case", DATA_PATH)
    def test_lending_changes_nothing_observable(self, case, monkeypatch):
        lent, copied = lent_and_copied(DATA_PATH[case], monkeypatch)
        assert lent == copied


FAR = DEFAULT_HEAP_SIZE - 4  # an 8-byte range from here runs past the heap
LOCAL, REMOTE = r"\[-8, 0\)", rf"\[{FAR}, {FAR + 8}\)"

# the local range starts at -8, the remote one at FAR; fetch_inc has no
# local buffer
RANGE_FAULTS = [
    pytest.param(LOCAL, lambda pe: pe.put(1, 0, 8, src_offset=-8),
                 id="put-local"),
    pytest.param(REMOTE, lambda pe: pe.put(1, FAR, 8, src_offset=0),
                 id="put-remote"),
    pytest.param(LOCAL, lambda pe: pe.get(1, 0, 8, dst_offset=-8),
                 id="get-local"),
    pytest.param(REMOTE, lambda pe: pe.get(1, FAR, 8, dst_offset=0),
                 id="get-remote"),
    pytest.param(LOCAL, lambda pe: pe.put_nbi(1, 0, 8, src_offset=-8),
                 id="put_nbi-local"),
    pytest.param(REMOTE, lambda pe: pe.put_nbi(1, FAR, 8, src_offset=0),
                 id="put_nbi-remote"),
    pytest.param(LOCAL, lambda pe: pe.get_nbi(1, 0, 8, dst_offset=-8),
                 id="get_nbi-local"),
    pytest.param(REMOTE, lambda pe: pe.get_nbi(1, FAR, 8, dst_offset=0),
                 id="get_nbi-remote"),
    pytest.param(REMOTE, lambda pe: pe.fetch_inc(1, FAR), id="fetch_inc-remote"),
]


class TestCallChecks:
    """A bad argument fails at the call: nothing is traced or sent."""

    @staticmethod
    def _assert_untouched(world):
        assert world.now == 0.0
        assert not world.trace.entries  # no POST
        assert world._nic_free == [0.0, 0.0]  # no message injected

    @pytest.mark.parametrize("where, call", RANGE_FAULTS)
    def test_rma_range_fault_at_the_call(self, where, call):
        def prog(pe):
            yield from call(pe)

        world = PgasWorld(2, NET)
        with pytest.raises(HeapFault, match=where):
            world.run([prog, idle])
        self._assert_untouched(world)

    @pytest.mark.parametrize("target", [5, -1])
    def test_fetch_remote_clock_rejects_unknown_pe(self, target):
        def prog(pe):
            yield from pe.fetch_remote_clock(target)

        world = PgasWorld(2, NET)
        with pytest.raises(ValueError, match=rf"^unknown pe {target}$"):
            world.run([prog, idle])
        self._assert_untouched(world)


class _HeapWrites(ast.NodeVisitor):
    """The qualified scope of every `x[a:b] = ...` and every
    `x.pack_into(...)` in a module."""

    def __init__(self):
        self.scope, self.sites = [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Assign(self, node):
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Slice)):
                self.sites.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "pack_into"):
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def test_heap_bytes_are_written_only_in_write():
    """Every write to a heap, an RMA or broadcast payload, a local store or
    an atomic update, goes through `PgasWorld._write`, which gives each
    lent payload that the write overlaps its own copy first."""
    package = Path(pgas.__file__).parent
    for module in package.rglob("*.py"):
        visitor = _HeapWrites()
        visitor.visit(ast.parse(module.read_text()))
        if module.name == "pgas.py":
            assert set(visitor.sites) == {"PgasWorld._write"}
        else:
            assert visitor.sites == [], module
