"""Deterministic discrete-event simulator of an OpenSHMEM-like runtime.

PE programs are generator functions over a `Pe` handle; they run as
cooperatively scheduled logical processes whose communication costs follow
the NetworkModel.  Every event of interest is logged to a GroundTruthTrace,
which measurement code treats as the oracle.

Scheduling is a single heapq of `(time, seq, rank, value)` entries; ties
break by insertion sequence number, so a given (config, seed, programs)
triple always replays to an identical trace. An entry with `rank >= 0`
resumes that PE's generator by sending it `value`; one with `rank == -1`
calls `value()`, a NIC callback (a delivery, a served request). No closure
is built per PE step.

Only generators reach `_resume`: `run` wraps a program that returns a
plain iterator or None once, so each step is one `send` and one type check
of the yielded request. A PE whose `_Advance` ends strictly before the head
of the queue continues at once, without a push and a pop; one that ends at
the head's time or later is queued, so an event queued earlier at the same
time still runs first.

A world's symmetric heap is allocated and zeroed on its first access, so a
template world that `run_fresh` only copies holds no heap memory.
"""

from __future__ import annotations

import heapq
import operator
import random
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from types import GeneratorType
from typing import Callable, Generator, Iterable

from .netmodel import (ClockModel, NetworkModel, ProgressMode,
                       PutReturnPolicy, ceil_log2)
from . import trace as tr
from .trace import GroundTruthTrace


class SimulationError(RuntimeError):
    pass


class DeadlockError(SimulationError):
    """Event queue drained while PEs were still blocked."""

    def __init__(self, blocked: dict[int, str]):
        self.blocked = blocked
        detail = "; ".join(f"PE {pe}: {why}" for pe, why in sorted(blocked.items()))
        super().__init__(f"deadlock, blocked PEs: {detail}")


class HeapFault(SimulationError):
    pass


class CollectiveMismatchError(SimulationError):
    """Mismatched collective call sequence across PEs."""


class LockError(SimulationError):
    pass


_CMP = {
    "eq": operator.eq, "ne": operator.ne,
    "ge": operator.ge, "gt": operator.gt,
    "le": operator.le, "lt": operator.lt,
}

_INT = struct.Struct("<q")
INT_SIZE = _INT.size
DEFAULT_HEAP_SIZE = 1 << 21  # bytes of symmetric heap per PE

BCAST_LINEAR = "linear"
BCAST_BINOMIAL = "binomial"
BARRIER_DISSEMINATION = "dissemination"
BARRIER_REDUCE_BCAST = "reduce_bcast"


@dataclass(slots=True)
class _Advance:
    dt: float


class _Signal:
    __slots__ = ("waiters",)

    def __init__(self):
        self.waiters: list[int] = []


@dataclass(slots=True)
class _Wait:
    signal: _Signal
    why: str


class _OpState:
    __slots__ = ("op_id", "delivered", "done", "deferred")

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.delivered = False
        self.done = _Signal()
        self.deferred = None  # set for ON_QUIET non-blocking ops


class _LockState:
    __slots__ = ("holder", "queue")

    def __init__(self):
        self.holder: int | None = None
        self.queue: deque[tuple[int, _Signal]] = deque()


def _binomial_children(rel: int, size: int) -> tuple[int | None, list[int]]:
    """Parent and children (in relative ranks) of a binomial broadcast tree."""
    mask = 1
    parent = None
    while mask < size:
        if rel & mask:
            parent = rel - mask
            break
        mask <<= 1
    if parent is None:
        cm = 1
        while cm < size:
            cm <<= 1
        cm >>= 1
    else:
        cm = mask >> 1
    children = []
    while cm > 0:
        c = rel + cm
        if c < size:
            children.append(c)
        cm >>= 1
    return parent, children


class Pe:
    """Per-PE handle passed to programs; all ops are generators."""

    def __init__(self, world: "PgasWorld", rank: int):
        self.world = world
        self.rank = rank

    # -- local compute and timing -------------------------------------------

    def advance(self, dt: float):
        """Burn `dt` seconds of simulated compute."""
        if dt > 0:
            yield _Advance(dt)

    def read_timer(self):
        """Sample the local clock, then charge the timer-read overhead."""
        w = self.world
        t = w.clock.local_time(self.rank, w.now)
        yield _Advance(w.clock.timer_overhead)
        return t

    stamp_begin = read_timer

    def stamp_end(self):
        """Charge the timer-read overhead, then sample the local clock.

        A begin/end stamp pair therefore brackets the full wall cost of both
        timer calls inside the measured window, which is what a per-iteration
        timing loop pays for in practice.
        """
        w = self.world
        yield _Advance(w.clock.timer_overhead)
        return w.clock.local_time(self.rank, w.now)

    def busy_wait(self, seconds: float):
        """Spin for >= `seconds` in whole work units; returns actual elapsed."""
        w = self.world
        if seconds <= 0:
            return 0.0
        units = -int(-seconds / w.busy_wait_unit // 1)  # ceil
        dt = units * w.busy_wait_unit
        yield _Advance(dt)
        return dt

    def advance_to_local_time(self, t_local: float):
        """Spin until the local clock reads `t_local`; True if already past."""
        w = self.world
        target = w.clock.global_time(self.rank, t_local)
        if target <= w.now:
            return True
        yield _Advance(target - w.now)
        return False

    # -- local heap ----------------------------------------------------------

    def store_int(self, offset: int, value: int):
        self.world._heap_write_int(self.rank, offset, value)

    def load_int(self, offset: int) -> int:
        return self.world._heap_read_int(self.rank, offset)

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        self.world._check_range(self.rank, offset, nbytes)
        return bytes(self.world.heap[self.rank][offset:offset + nbytes])

    def write_bytes(self, offset: int, data: bytes):
        self.world._check_range(self.rank, offset, len(data))
        self.world.heap[self.rank][offset:offset + len(data)] = data

    # -- one-sided RMA --------------------------------------------------------

    def put(self, target: int, offset: int, nbytes: int, src_offset: int | None = None):
        """Blocking put; return time follows the model's put_return_policy."""
        w, net = self.world, self.world.net
        src = offset if src_offset is None else src_offset
        w._check_range(self.rank, src, nbytes)
        w._check_range(target, offset, nbytes)
        op = w._new_op(self.rank)
        w._pending[self.rank][op.op_id] = op  # quiet fences blocking puts too
        w._trace(tr.POST, self.rank, op.op_id)
        yield _Advance(net.o_s + net.G * nbytes)
        data = w.heap[self.rank][src:src + nbytes]
        rank = self.rank

        def deliver():
            w.heap[target][offset:offset + nbytes] = data
            op.delivered = True
            w._trace(tr.REMOTE_DELIVERED, rank, op.op_id)
            w._heap_written(target, offset, nbytes)
            w._fire(op.done)

        w._inject(self.rank, w.now, 0, deliver)
        w._trace(tr.LOCAL_COMPLETE, self.rank, op.op_id)
        if net.put_return_policy is PutReturnPolicy.REMOTE_COMPLETION:
            if not op.delivered:
                yield _Wait(op.done, f"put {op.op_id} remote completion")
        return op.op_id

    def get(self, target: int, offset: int, nbytes: int, dst_offset: int | None = None):
        """Blocking get: full request/response round trip."""
        w, net = self.world, self.world.net
        dst = offset if dst_offset is None else dst_offset
        w._check_range(target, offset, nbytes)
        w._check_range(self.rank, dst, nbytes)
        op = w._new_op(self.rank)
        w._trace(tr.POST, self.rank, op.op_id)
        rank = self.rank

        def serve():
            data = w.heap[target][offset:offset + nbytes]

            def deliver():
                w.heap[rank][dst:dst + nbytes] = data
                op.delivered = True
                w._trace(tr.LOCAL_COMPLETE, rank, op.op_id)
                w._trace(tr.REMOTE_DELIVERED, rank, op.op_id)
                w._heap_written(rank, dst, nbytes)
                w._fire(op.done)

            w._inject(target, w.now + net.o_s, nbytes, deliver)

        w._inject(self.rank, w.now + net.o_s, 0, serve)
        yield _Wait(op.done, f"get {op.op_id} completion")
        return op.op_id

    def put_nbi(self, target: int, offset: int, nbytes: int, src_offset: int | None = None):
        w, net = self.world, self.world.net
        src = offset if src_offset is None else src_offset
        w._check_range(self.rank, src, nbytes)
        w._check_range(target, offset, nbytes)
        op = w._new_op(self.rank)
        w._trace(tr.POST, self.rank, op.op_id)
        w._pending[self.rank][op.op_id] = op
        yield _Advance(net.o_s)
        w._trace(tr.LOCAL_COMPLETE, self.rank, op.op_id)
        rank = self.rank

        def launch():
            data = w.heap[rank][src:src + nbytes]

            def deliver():
                w.heap[target][offset:offset + nbytes] = data
                op.delivered = True
                w._trace(tr.REMOTE_DELIVERED, rank, op.op_id)
                w._heap_written(target, offset, nbytes)
                w._fire(op.done)

            w._inject(rank, w.now, nbytes, deliver)

        if net.progress_mode is ProgressMode.BACKGROUND:
            launch()
        else:
            op.deferred = launch
        return op.op_id

    def get_nbi(self, target: int, offset: int, nbytes: int, dst_offset: int | None = None):
        w, net = self.world, self.world.net
        dst = offset if dst_offset is None else dst_offset
        w._check_range(target, offset, nbytes)
        w._check_range(self.rank, dst, nbytes)
        op = w._new_op(self.rank)
        w._trace(tr.POST, self.rank, op.op_id)
        w._pending[self.rank][op.op_id] = op
        yield _Advance(net.o_s)
        w._trace(tr.LOCAL_COMPLETE, self.rank, op.op_id)
        rank = self.rank

        def launch():
            def serve():
                data = w.heap[target][offset:offset + nbytes]

                def deliver():
                    w.heap[rank][dst:dst + nbytes] = data
                    op.delivered = True
                    w._trace(tr.REMOTE_DELIVERED, rank, op.op_id)
                    w._heap_written(rank, dst, nbytes)
                    w._fire(op.done)

                w._inject(target, w.now + net.o_s, nbytes, deliver)

            w._inject(rank, w.now, 0, serve)

        if net.progress_mode is ProgressMode.BACKGROUND:
            launch()
        else:
            op.deferred = launch
        return op.op_id

    def quiet(self):
        """Wait for all of this PE's outstanding operations to deliver."""
        w = self.world
        qid = f"quiet{w._next_quiet}"
        w._next_quiet += 1
        start = w.now
        pending = list(w._pending[self.rank].values())
        for op in pending:
            if op.deferred is not None:
                launch, op.deferred = op.deferred, None
                launch()
        for op in pending:
            if not op.delivered:
                yield _Wait(op.done, f"quiet on {op.op_id}")
        yield _Advance(w.net.q0)
        w._pending[self.rank].clear()
        w._trace(tr.QUIET_DONE, self.rank, qid)
        w.trace.quiet_spans[qid] = (start, w.now)
        return qid

    # -- atomics and waiting ---------------------------------------------------

    def fetch_inc(self, target: int, offset: int):
        """Atomic remote fetch-and-increment; blocks for the full round trip."""
        w, net = self.world, self.world.net
        w._check_range(target, offset, INT_SIZE)
        op = w._new_op(self.rank)
        w._trace(tr.POST, self.rank, op.op_id)
        done = _Signal()
        box: list[int] = []
        rank = self.rank

        def apply():
            pre = w._heap_read_int(target, offset)
            w._heap_write_int(target, offset, pre + 1)
            w._trace(tr.ACK_INC, target, op.op_id)
            w.trace.ack_values.append((w.now, target, pre + 1))
            w._heap_written(target, offset, INT_SIZE)
            box.append(pre)

            def respond():
                w._trace(tr.REMOTE_DELIVERED, rank, op.op_id)
                w._fire(done)

            w._inject(target, w.now + net.o_s, INT_SIZE, respond)

        w._inject(self.rank, w.now + net.o_s, INT_SIZE, apply)
        yield _Wait(done, f"fetch_inc {op.op_id} response")
        return box[0]

    def wait_until(self, offset: int, cmp: str, value: int):
        """Suspend until the local integer cell satisfies `cmp value`."""
        w = self.world
        fn = _CMP[cmp]
        if fn(w._heap_read_int(self.rank, offset), value):
            return
        sig = _Signal()
        w._cell_waiters[self.rank].append((offset, fn, value, sig))
        yield _Wait(sig, f"wait_until heap[{offset}] {cmp} {value}")

    def fetch_remote_clock(self, target: int):
        """Round-trip read of the target's local clock at the serve instant."""
        w, net = self.world, self.world.net
        done = _Signal()
        box: list[float] = []
        rank = self.rank

        def serve():
            box.append(w.clock.local_time(target, w.now))
            w._inject(target, w.now + net.o_s, INT_SIZE, lambda: w._fire(done))

        w._inject(self.rank, w.now + net.o_s, 0, serve)
        yield _Wait(done, "remote clock fetch")
        return box[0]

    # -- collectives -------------------------------------------------------------

    def barrier(self):
        w = self.world
        inst = w._collective_enter(self.rank, ("barrier", w.barrier_root))
        oid = f"barrier{inst}"
        w._trace(tr.BARRIER_ENTER, self.rank, oid)
        rec = w.trace.barrier_instances.setdefault(
            inst, {"enter": {}, "exit": {}})
        rec["enter"][self.rank] = w.now
        if w.npes > 1:
            if w.barrier_algo == BARRIER_DISSEMINATION:
                yield from self._barrier_dissemination(inst)
            else:
                yield from self._barrier_reduce_bcast(inst, w.barrier_root)
        w._trace(tr.BARRIER_EXIT, self.rank, oid)
        rec["exit"][self.rank] = w.now

    def _barrier_dissemination(self, inst: int):
        w, net, P = self.world, self.world.net, self.world.npes
        for k in range(ceil_log2(P)):
            dst = (self.rank + (1 << k)) % P
            yield _Advance(net.o_s)
            w._send_ctrl(self.rank, dst, ("bar", inst, k), 0)
            yield from self._wait_ctrl(("bar", inst, k), 1,
                                       f"barrier {inst} round {k}")

    def _barrier_reduce_bcast(self, inst: int, root: int):
        w, net, P = self.world, self.world.net, self.world.npes
        rel = (self.rank - root) % P
        _, children = _binomial_children(rel, P)
        if self.rank != root:
            yield _Advance(net.o_s)
            w._send_ctrl(self.rank, root, ("bar_red", inst), 0)
            yield from self._wait_ctrl(("bar_rel", inst), 1,
                                       f"barrier {inst} release")
        else:
            yield from self._wait_ctrl(("bar_red", inst), P - 1,
                                       f"barrier {inst} reduce")
        for c in children:
            yield _Advance(net.o_s)
            w._send_ctrl(self.rank, (c + root) % P, ("bar_rel", inst), 0)

    def broadcast(self, root: int, offset: int, nbytes: int):
        w, net, P = self.world, self.world.net, self.world.npes
        if not 0 <= root < P:
            raise ValueError(f"invalid broadcast root {root}")
        w._check_range(self.rank, offset, nbytes)
        inst = w._collective_enter(self.rank, ("bcast", root))
        oid = f"bcast{inst}"
        w._trace(tr.BCAST_ENTER, self.rank, oid)
        rec = w.trace.bcast_instances.setdefault(
            inst, {"root": root, "enter": {}, "exit": {}})
        rec["enter"][self.rank] = w.now
        if P > 1:
            if w.bcast_topology == BCAST_LINEAR:
                yield from self._bcast_linear(inst, root, offset, nbytes)
            else:
                yield from self._bcast_binomial(inst, root, offset, nbytes)
        w._trace(tr.BCAST_EXIT, self.rank, oid)
        rec["exit"][self.rank] = w.now

    def _send_payload(self, dst: int, key, offset: int, nbytes: int) -> float:
        """Charge the sender and inject one data message; returns departure."""
        w, net = self.world, self.world.net
        data = w.heap[self.rank][offset:offset + nbytes]

        def deliver():
            w.heap[dst][offset:offset + nbytes] = data
            w._heap_written(dst, offset, nbytes)
            w._mail_deliver(dst, key)

        return w._inject(self.rank, w.now, 0, deliver)

    def _bcast_linear(self, inst: int, root: int, offset: int, nbytes: int):
        w, net, P = self.world, self.world.net, self.world.npes
        key = ("bc", inst)
        if self.rank == root:
            last_dep = w.now
            for dst in range(P):
                if dst == root:
                    continue
                yield _Advance(net.o_s + net.G * nbytes)
                last_dep = self._send_payload(dst, key, offset, nbytes)
            if last_dep > w.now:
                yield _Advance(last_dep - w.now)
        else:
            yield from self._wait_ctrl(key, 1, f"bcast {inst} data")

    def _bcast_binomial(self, inst: int, root: int, offset: int, nbytes: int):
        w, net, P = self.world, self.world.net, self.world.npes
        key = ("bc", inst)
        rel = (self.rank - root) % P
        parent, children = _binomial_children(rel, P)
        if parent is not None:
            yield from self._wait_ctrl(key, 1, f"bcast {inst} data")
        last_dep = w.now
        for c in children:
            yield _Advance(net.o_s + net.G * nbytes)
            last_dep = self._send_payload((c + root) % P, key, offset, nbytes)
        if last_dep > w.now:
            yield _Advance(last_dep - w.now)

    # -- global locks ---------------------------------------------------------

    def lock_set(self, offset: int, home: int = 0):
        w, net = self.world, self.world.net
        lk = w._lock(home, offset)
        oid = f"lock-{home}-{offset}"
        done = _Signal()
        rank = self.rank

        def req_arrive():
            if lk.holder is None:
                lk.holder = rank
                w._trace(tr.LOCK_ACQUIRED, rank, oid)
                w._inject(home, w.now + net.o_s, 0, lambda: w._fire(done))
            else:
                lk.queue.append((rank, done))

        w._inject(self.rank, w.now + net.o_s, 0, req_arrive)
        yield _Wait(done, f"lock_set {oid}")

    def lock_test(self, offset: int, home: int = 0):
        w, net = self.world, self.world.net
        lk = w._lock(home, offset)
        oid = f"lock-{home}-{offset}"
        done = _Signal()
        box: list[bool] = []
        rank = self.rank

        def req_arrive():
            ok = lk.holder is None
            if ok:
                lk.holder = rank
                w._trace(tr.LOCK_ACQUIRED, rank, oid)
            box.append(ok)
            w._inject(home, w.now + net.o_s, 0, lambda: w._fire(done))

        w._inject(self.rank, w.now + net.o_s, 0, req_arrive)
        yield _Wait(done, f"lock_test {oid}")
        return box[0]

    def lock_clear(self, offset: int, home: int = 0):
        w, net = self.world, self.world.net
        lk = w._lock(home, offset)
        if lk.holder != self.rank:
            raise LockError(
                f"PE {self.rank} clearing lock ({home},{offset}) held by {lk.holder}")
        oid = f"lock-{home}-{offset}"
        done = _Signal()
        rank = self.rank

        def rel_arrive():
            w._trace(tr.LOCK_RELEASED, rank, oid)
            if lk.queue:
                nxt, sig = lk.queue.popleft()
                lk.holder = nxt
                w._trace(tr.LOCK_ACQUIRED, nxt, oid)
                w._inject(home, w.now + net.o_s, 0, lambda: w._fire(sig))
            else:
                lk.holder = None
            w._inject(home, w.now + net.o_s, 0, lambda: w._fire(done))

        w._inject(self.rank, w.now + net.o_s, 0, rel_arrive)
        yield _Wait(done, f"lock_clear {oid}")

    # -- control-message plumbing -----------------------------------------------

    def _wait_ctrl(self, key, need: int, why: str):
        w = self.world
        box = w._mail[self.rank]
        if box.get(key, 0) >= need:
            box[key] -= need
            return
        sig = _Signal()
        w._mail_waiters[self.rank].setdefault(key, []).append((need, sig))
        yield _Wait(sig, why)


class PgasWorld:
    """The simulated machine: PEs, symmetric heap, NIC queues, trace.

    The heap is allocated on first access, so a world that never touches
    memory (a template copied by `fresh`, a barrier-only run) holds none.
    """

    def __init__(self, npes: int, net: NetworkModel, clock: ClockModel | None = None,
                 heap_size: int = DEFAULT_HEAP_SIZE,
                 bcast_topology: str = BCAST_BINOMIAL,
                 barrier_algo: str = BARRIER_DISSEMINATION,
                 barrier_root: int = 0,
                 busy_wait_unit: float = 1e-9):
        if npes < 1:
            raise ValueError("npes must be >= 1")
        clock = clock if clock is not None else ClockModel.ideal(npes)
        if clock.npes != npes:
            raise ValueError("clock model sized for a different PE count")
        if bcast_topology not in (BCAST_LINEAR, BCAST_BINOMIAL):
            raise ValueError(f"unknown broadcast topology {bcast_topology!r}")
        if barrier_algo not in (BARRIER_DISSEMINATION, BARRIER_REDUCE_BCAST):
            raise ValueError(f"unknown barrier algorithm {barrier_algo!r}")
        if not 0 <= barrier_root < npes:
            raise ValueError("barrier_root out of range")
        if busy_wait_unit <= 0:
            raise ValueError("busy_wait_unit must be > 0")
        if heap_size < 0:
            raise ValueError("heap_size must be >= 0")
        self.npes = npes
        self.net = net
        self.clock = clock
        self.heap_size = heap_size
        self.bcast_topology = bcast_topology
        self.barrier_algo = barrier_algo
        self.barrier_root = barrier_root
        self.busy_wait_unit = busy_wait_unit

        self.trace = GroundTruthTrace()
        self.now = 0.0
        self._queue: list = []
        self._seq = 0
        self._nic_free = [0.0] * npes
        self._random = random.Random(clock.jitter_seed).random
        self._pending: list[dict[str, _OpState]] = [dict() for _ in range(npes)]
        self._mail: list[dict] = [dict() for _ in range(npes)]
        # per PE: mail key -> [(need, signal)], in the order they blocked
        self._mail_waiters: list[dict] = [dict() for _ in range(npes)]
        self._cell_waiters: list[list] = [list() for _ in range(npes)]
        self._locks: dict[tuple[int, int], _LockState] = {}
        self._coll_count = [0] * npes
        self._coll_sig: dict[int, tuple] = {}
        self._next_op = 0
        self._next_quiet = 0
        self._sends: list = []  # each PE generator's `send`
        self._done: list[bool] = []
        self._blocked_why: list[str | None] = []
        self.returned: list = [None] * npes  # each PE program's return value
        self._ran = False

    def fresh(self, jitter_seed: int | None = None) -> "PgasWorld":
        """A new, unrun world with the same configuration."""
        clock = self.clock
        if jitter_seed is not None and jitter_seed != clock.jitter_seed:
            clock = ClockModel(npes=clock.npes, drift_rate=clock.drift_rate,
                               initial_offset=clock.initial_offset,
                               timer_overhead=clock.timer_overhead,
                               jitter_seed=jitter_seed)
        return PgasWorld(self.npes, self.net, clock,
                         heap_size=self.heap_size,
                         bcast_topology=self.bcast_topology,
                         barrier_algo=self.barrier_algo,
                         barrier_root=self.barrier_root,
                         busy_wait_unit=self.busy_wait_unit)

    @cached_property
    def heap(self) -> list[bytearray]:
        """`npes` zeroed heaps of `heap_size` bytes, all allocated on the
        first access."""
        return [bytearray(self.heap_size) for _ in range(self.npes)]

    def pe(self, rank: int) -> Pe:
        return Pe(self, rank)

    # -- execution -------------------------------------------------------------

    def run(self, programs: Iterable[Callable[[Pe], Generator]]) -> GroundTruthTrace:
        programs = list(programs)
        if len(programs) != self.npes:
            raise ValueError(f"need exactly {self.npes} programs, got {len(programs)}")
        if self._ran:
            raise SimulationError("a PgasWorld runs once; use .fresh()")
        self._ran = True
        for rank, prog in enumerate(programs):
            gen = prog(self.pe(rank))
            if type(gen) is not GeneratorType:
                gen = _as_generator(gen)
            self._sends.append(gen.send)
            self._done.append(False)
            self._blocked_why.append(None)
            self._seq += 1
            heapq.heappush(self._queue, (0.0, self._seq, rank, None))
        queue, pop, resume = self._queue, heapq.heappop, self._resume
        while queue:
            t, _, rank, value = pop(queue)
            self.now = t
            if rank < 0:
                value()
            else:
                resume(rank, value)
        # the queue is empty, so no PE is computing: each one not done is
        # blocked in the wait it yielded last
        blocked = {pe: self._blocked_why[pe]
                   for pe in range(self.npes) if not self._done[pe]}
        if blocked:
            raise DeadlockError(blocked)
        return self.trace

    def _resume(self, rank: int, value):
        send, queue = self._sends[rank], self._queue
        while True:
            try:
                req = send(value)
            except StopIteration as stop:
                self._done[rank] = True
                self.returned[rank] = stop.value
                return
            value = None
            kind = type(req)
            if kind is _Advance:
                if req.dt <= 0:
                    continue
                t = self.now + req.dt
                if not queue or t < queue[0][0]:
                    self.now = t  # nothing else happens before t
                    continue
                self._seq += 1
                heapq.heappush(queue, (t, self._seq, rank, None))
                return
            if kind is _Wait:
                req.signal.waiters.append(rank)
                self._blocked_why[rank] = req.why
                return
            raise SimulationError(f"PE {rank} yielded unexpected value {req!r}")

    def _fire(self, sig: _Signal, value=None):
        waiters, sig.waiters = sig.waiters, []
        for rank in waiters:
            self._seq += 1
            heapq.heappush(self._queue, (self.now, self._seq, rank, value))

    # -- NIC ------------------------------------------------------------------

    def _inject(self, src: int, t_ready: float, ser_bytes: int,
                deliver: Callable[[], None]) -> float:
        """Queue one message at src's NIC; returns the departure time."""
        net, nic_free = self.net, self._nic_free
        dep = nic_free[src] if nic_free[src] > t_ready else t_ready
        nic_free[src] = dep + net.g
        lat = net.L
        hw = net.jitter_half_width
        if hw > 0:
            # max(0, L + random.uniform(-hw, hw)), with uniform's arithmetic
            lat += -hw + (hw + hw) * self._random()
            if not lat > 0.0:
                lat = 0.0
        self._seq += 1
        heapq.heappush(self._queue, (dep + lat + net.G * ser_bytes + net.o_r,
                                     self._seq, -1, deliver))
        return dep

    def _send_ctrl(self, src: int, dst: int, key, ser_bytes: int) -> float:
        return self._inject(src, self.now, ser_bytes,
                            lambda: self._mail_deliver(dst, key))

    def _mail_deliver(self, dst: int, key):
        box = self._mail[dst]
        count = box[key] = box.get(key, 0) + 1
        waiters = self._mail_waiters[dst].get(key)
        if not waiters:
            return
        for i, (need, sig) in enumerate(waiters):
            if count >= need:
                box[key] = count - need
                del waiters[i]
                if not waiters:
                    del self._mail_waiters[dst][key]
                self._fire(sig)
                return

    # -- heap -------------------------------------------------------------------

    def _check_range(self, pe: int, offset: int, nbytes: int):
        if not 0 <= pe < self.npes:
            raise HeapFault(f"invalid PE {pe}")
        if nbytes < 0 or offset < 0 or offset + nbytes > self.heap_size:
            raise HeapFault(f"heap access [{offset}, {offset + nbytes}) out of range")

    def _heap_read_int(self, pe: int, offset: int) -> int:
        self._check_range(pe, offset, INT_SIZE)
        return _INT.unpack_from(self.heap[pe], offset)[0]

    def _heap_write_int(self, pe: int, offset: int, value: int):
        self._check_range(pe, offset, INT_SIZE)
        _INT.pack_into(self.heap[pe], offset, value)

    def _heap_written(self, pe: int, offset: int, nbytes: int):
        """Re-check cell waiters after a write to [offset, offset+nbytes)."""
        waiters = self._cell_waiters[pe]
        if not waiters:
            return
        keep = []
        for item in waiters:
            woff, fn, value, sig = item
            overlaps = woff < offset + nbytes and offset < woff + INT_SIZE
            if overlaps and fn(self._heap_read_int(pe, woff), value):
                self._fire(sig)
            else:
                keep.append(item)
        self._cell_waiters[pe] = keep

    # -- collectives / locks -------------------------------------------------------

    def _collective_enter(self, rank: int, signature: tuple) -> int:
        idx = self._coll_count[rank]
        self._coll_count[rank] += 1
        if idx in self._coll_sig:
            if self._coll_sig[idx] != signature:
                raise CollectiveMismatchError(
                    f"collective #{idx}: PE {rank} called {signature}, "
                    f"others called {self._coll_sig[idx]}")
        else:
            self._coll_sig[idx] = signature
        return idx

    def _lock(self, home: int, offset: int) -> _LockState:
        if not 0 <= home < self.npes:
            raise LockError(f"invalid lock home PE {home}")
        self._check_range(home, offset, INT_SIZE)
        return self._locks.setdefault((home, offset), _LockState())

    def _new_op(self, rank: int) -> _OpState:
        op = _OpState(f"op{self._next_op}")
        self._next_op += 1
        return op

    def _trace(self, kind: str, pe: int, op_id: str):
        self.trace.record(self.now, pe, kind, op_id)


def idle(pe: Pe):
    """A PE program that does nothing."""
    return iter(())


def _as_generator(requests: Iterable | None) -> Generator:
    """A generator over what a non-generator program returned: a plain
    iterator of requests, or None for a program with nothing to do."""
    if requests is not None:
        yield from requests


def run_fresh(template: PgasWorld, prog: Callable[[Pe], Generator],
              ranks: Iterable[int] | None = None) -> PgasWorld:
    """Run `prog` on `ranks` (every PE by default) of a fresh copy of
    `template`, and `idle` on every other PE; returns the run world."""
    w = template.fresh()
    ranks = range(w.npes) if ranks is None else set(ranks)
    w.run([prog if rank in ranks else idle for rank in range(w.npes)])
    return w


def check_iters(iters: int, name: str = "iters"):
    """Reject a loop count before any world is built for it."""
    if iters < 1:
        raise ValueError(f"{name} must be >= 1")


@dataclass
class Measurement:
    """One measured per-call time and the conditions under which it holds.

    `result` is the time per call over `iterations` timed calls. `flags`
    name a doubtful result (`unstable`: clamped at zero; `unstable_pilot`;
    `invalid`: most windows overran), `components` hold the terms it was
    derived from, `per_task` a per-PE estimate, `discarded` the overrun
    windows, and `world` the run, kept only where trace checks need it.
    """
    result: float
    iterations: int
    flags: list[str] = field(default_factory=list)
    components: dict[str, float] = field(default_factory=dict)
    per_task: dict[int, float] = field(default_factory=dict)
    discarded: int = 0
    world: PgasWorld | None = None
