"""Simulator-level tests: RMA semantics, quiet, atomics, determinism."""

import ast
import gc
import tracemalloc
from pathlib import Path

import pytest

from shmembench import (ClockModel, DeadlockError, HeapFault, NetworkModel,
                        PgasWorld, ProgressMode, PutReturnPolicy, run_fresh)
from shmembench import pgas
from shmembench.pgas import DEFAULT_HEAP_SIZE, idle
from shmembench import trace as _tr
from shmembench.trace import (ACK_INC, LOCAL_COMPLETE, POST, QUIET_DONE,
                              REMOTE_DELIVERED)

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
    """A world's symmetric heap is allocated and zeroed on first access,
    for every PE at once; a world that never touches memory holds none."""

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
        assert world.heap == expect

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
        assert [len(h) for h in world.heap] == [heap_size] * 2
        assert world.heap[0][:2] == b"in"


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


class TestDataPath:
    def test_put_payload_is_taken_at_send_time(self):
        out = {}

        def prog(pe):
            pe.write_bytes(0, b"old-data")
            out["op"] = yield from pe.put(1, 64, 8, src_offset=0)
            out["ret"] = pe.world.now
            pe.write_bytes(0, b"new-data")

        world, trace = run2(NET, prog)
        # local-completion return: the source is reusable before delivery
        assert out["ret"] < trace.op_events[out["op"]][REMOTE_DELIVERED]
        assert world.pe(1).read_bytes(64, 8) == b"old-data"

    def test_broadcast_payload_is_taken_at_send_time(self):
        out = {}

        def prog(pe):
            if pe.rank == 0:
                pe.write_bytes(128, b"payload!")
            yield from pe.broadcast(0, 128, 8)
            if pe.rank == 0:
                out["ret"] = pe.world.now
                pe.write_bytes(128, b"mutated!")
            else:
                out[pe.rank] = pe.read_bytes(128, 8)

        world = PgasWorld(4, NET)
        trace = world.run([prog] * 4)
        assert out["ret"] < max(trace.bcast_instances[0]["exit"].values())
        assert [out[r] for r in (1, 2, 3)] == [b"payload!"] * 3



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


class _SliceAssignments(ast.NodeVisitor):
    """The qualified scope of every `x[a:b] = ...` in a module."""

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


def test_heap_slices_are_written_in_three_places():
    """RMA payloads land only in `_land`; the other heap writes are a
    broadcast payload's delivery and a PE's own `write_bytes`."""
    visitor = _SliceAssignments()
    visitor.visit(ast.parse(Path(pgas.__file__).read_text()))
    assert sorted(visitor.sites) == ["Pe._send_payload.deliver",
                                     "Pe.write_bytes", "PgasWorld._land"]
