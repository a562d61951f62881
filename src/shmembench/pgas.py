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

Large heap bytes exist only where a run touches them. The symmetric heap
is allocated and zeroed on first access, so a template world that
`run_fresh` only copies holds none. A heap of at least `PER_PE_HEAP_MIN`
bytes is allocated for each PE on that PE's first access, so a PE that no
operation addresses holds none; a smaller one comes for every PE at once.
A payload below `LEND_MIN` bytes is copied when it is sent; a larger one
is lent: it lands with one copy straight from its source heap, and a write
to that source before it lands first gives it its own copy. Either way a
payload delivers the bytes its source held at send time.

PE operations share a few message shapes, each written once: every
payload is taken in `PgasWorld._take`, every heap byte is written in
`PgasWorld._write`, every RMA payload completes in `PgasWorld._land`, every
request/reply pair is `PgasWorld._round_trip`, a lock is handed over in
`PgasWorld._grant`, and `Pe._collective` brackets each barrier and
broadcast. A blocking call's result is the value its wait resumes with.

The measurement functions share one skeleton: `run_fresh` runs a program
on a fresh world, `timed_loop` times a loop of calls with either
`TimingStrategy`, and `Measurement.clamped` reports a difference of
timings, clamped at zero.
"""

from __future__ import annotations

import heapq
import operator
import random
import struct
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
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
BUSY_WAIT_UNIT = 1e-9  # seconds of one busy-wait work unit
# Payloads of at least this many bytes are lent from their source heap
# rather than copied when sent. A loan costs about 2 us more to track than
# a copy. At 32 KiB a copy is still cheaper for a broadcast hop; for a put,
# an nbi put loop and a broadcast a loan is 1.06-1.31x faster at 64 KiB
# and 1.18-1.67x at 128 KiB.
LEND_MIN = 128 << 10
# Heaps of at least this many bytes are allocated for each PE on that PE's
# first lookup; smaller ones for every PE at once, on the first lookup of
# any (a 256 KiB heap takes about 6 us to zero).
PER_PE_HEAP_MIN = 256 << 10
# Below both limits a row copies and zeroes what it did when every payload
# was copied and every heap came at once, so the cli_mixed benchmark's
# sections under 3 ms keep their length: its per-unit span coverage gate
# fails more often on shorter units (ROADMAP item 6).

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


class _Loan:
    """A payload lent from `pe`'s heap range [offset, end). It lands
    straight from there, unless a write to the range comes first and gives
    it `data`, its own copy."""
    __slots__ = ("pe", "offset", "end", "data")

    def __init__(self, pe: int, offset: int, end: int):
        self.pe = pe
        self.offset = offset
        self.end = end
        self.data: bytearray | None = None

    def __len__(self) -> int:
        return self.end - self.offset


class _Heaps(dict):
    """PE -> its zeroed symmetric heap of `size` bytes, allocated on first
    lookup: that PE's alone from `PER_PE_HEAP_MIN` bytes up, below it every
    one of the `npes` PEs' heaps at once."""
    __slots__ = ("size", "npes")

    def __init__(self, size: int, npes: int):
        super().__init__()
        self.size = size
        self.npes = npes

    def __missing__(self, pe: int) -> bytearray:
        heap = self[pe] = bytearray(self.size)
        if self.size < PER_PE_HEAP_MIN:
            for other in range(self.npes):
                if other not in self:
                    self[other] = bytearray(self.size)
        return heap


class _LockState:
    __slots__ = ("holder", "queue")

    def __init__(self):
        self.holder: int | None = None
        self.queue: deque[tuple[int, _Signal]] = deque()


def _bcast_children(topology: str, rank: int, root: int, size: int) -> list[int]:
    """The PEs that `rank` sends to in a broadcast tree rooted at `root`.

    A linear tree's root sends to every other PE in rank order. In a
    binomial tree, the PE at relative rank `rel` sends to `rel + 2**k` for
    each bit k below its lowest set bit (for the root, below `size`),
    highest first.
    """
    if topology == BCAST_LINEAR:
        return [dst for dst in range(size) if dst != root] if rank == root else []
    rel = (rank - root) % size
    low = rel & -rel if rel else 1 << (size - 1).bit_length()
    return [(rel + (low >> k) + root) % size
            for k in range(1, low.bit_length()) if rel + (low >> k) < size]


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

    def stamp_begin(self):
        """Sample the local clock, then charge the timer-read overhead."""
        w = self.world
        t = w.clock.local_time(self.rank, w.now)
        yield _Advance(w.clock.timer_overhead)
        return t

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
        if seconds <= 0:
            return 0.0
        units = -int(-seconds / BUSY_WAIT_UNIT // 1)  # ceil
        dt = units * BUSY_WAIT_UNIT
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
        w = self.world
        w._check_range(self.rank, offset, nbytes)
        return bytes(memoryview(w.heap[self.rank])[offset:offset + nbytes])

    def write_bytes(self, offset: int, data: bytes):
        self.world._check_range(self.rank, offset, len(data))
        self.world._write(self.rank, offset, data)

    # -- one-sided RMA --------------------------------------------------------

    def put(self, target: int, offset: int, nbytes: int, src_offset: int | None = None):
        """Blocking put; return time follows the model's put_return_policy."""
        w, net = self.world, self.world.net
        src = offset if src_offset is None else src_offset
        op = w._post_rma(self.rank, self.rank, src, target, offset, nbytes)
        w._pending[self.rank][op.op_id] = op  # quiet fences blocking puts too
        yield _Advance(net.o_s + net.G * nbytes)
        w._send_put(op, self.rank, src, target, offset, nbytes, 0)
        w._trace(tr.LOCAL_COMPLETE, self.rank, op.op_id)
        if net.put_return_policy is PutReturnPolicy.REMOTE_COMPLETION:
            if not op.delivered:
                yield _Wait(op.done, f"put {op.op_id} remote completion")
        return op.op_id

    def get(self, target: int, offset: int, nbytes: int, dst_offset: int | None = None):
        """Blocking get: full request/response round trip."""
        w = self.world
        dst = offset if dst_offset is None else dst_offset
        op = w._post_rma(self.rank, target, offset, self.rank, dst, nbytes)
        rank = self.rank

        def complete(data):
            w._trace(tr.LOCAL_COMPLETE, rank, op.op_id)
            w._land(op, rank, rank, dst, data)

        w._round_trip(rank, target, w.now + w.net.o_s, 0,
                      partial(w._take, target, offset, nbytes), nbytes,
                      complete)
        yield _Wait(op.done, f"get {op.op_id} completion")
        return op.op_id

    def put_nbi(self, target: int, offset: int, nbytes: int, src_offset: int | None = None):
        w = self.world
        src = offset if src_offset is None else src_offset
        op = w._post_rma(self.rank, self.rank, src, target, offset, nbytes)
        return (yield from self._post_nbi(op, partial(
            w._send_put, op, self.rank, src, target, offset, nbytes, nbytes)))

    def get_nbi(self, target: int, offset: int, nbytes: int, dst_offset: int | None = None):
        w = self.world
        dst = offset if dst_offset is None else dst_offset
        op = w._post_rma(self.rank, target, offset, self.rank, dst, nbytes)
        rank = self.rank
        return (yield from self._post_nbi(op, lambda: w._round_trip(
            rank, target, w.now, 0, partial(w._take, target, offset, nbytes),
            nbytes, partial(w._land, op, rank, rank, dst))))

    def _post_nbi(self, op: _OpState, launch: Callable[[], object]):
        """Charge the issue overhead of a non-blocking op, then send it now
        or, under on-quiet progress, leave `launch` to the next quiet."""
        w = self.world
        w._pending[self.rank][op.op_id] = op
        yield _Advance(w.net.o_s)
        w._trace(tr.LOCAL_COMPLETE, self.rank, op.op_id)
        if w.net.progress_mode is ProgressMode.BACKGROUND:
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
        w = self.world
        # the remote cell is both the source and the destination
        op = w._post_rma(self.rank, target, offset, target, offset, INT_SIZE)
        rank = self.rank

        def apply():
            pre = w._heap_read_int(target, offset)
            w._heap_write_int(target, offset, pre + 1)
            w._trace(tr.ACK_INC, target, op.op_id)
            w.trace.ack_values.append((w.now, target, pre + 1))
            w._heap_written(target, offset, INT_SIZE)
            return pre

        def respond(pre):
            w._trace(tr.REMOTE_DELIVERED, rank, op.op_id)
            w._fire(op.done, pre)

        w._round_trip(rank, target, w.now + w.net.o_s, INT_SIZE, apply,
                      INT_SIZE, respond)
        return (yield _Wait(op.done, f"fetch_inc {op.op_id} response"))

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
        w = self.world
        done = _Signal()
        w._round_trip(self.rank, target, w.now + w.net.o_s, 0,
                      lambda: w.clock.local_time(target, w.now), INT_SIZE,
                      partial(w._fire, done))
        return (yield _Wait(done, "remote clock fetch"))

    # -- collectives -------------------------------------------------------------

    def barrier(self):
        w = self.world
        body = (self._barrier_dissemination
                if w.barrier_algo == BARRIER_DISSEMINATION
                else self._barrier_reduce_bcast)
        return self._collective(
            ("barrier", w.barrier_root), tr.BARRIER_ENTER, tr.BARRIER_EXIT,
            w.trace.barrier_instances, {}, body)

    def _barrier_dissemination(self, inst: int):
        w, net, P = self.world, self.world.net, self.world.npes
        for k in range(ceil_log2(P)):
            dst = (self.rank + (1 << k)) % P
            yield _Advance(net.o_s)
            w._send_ctrl(self.rank, dst, ("bar", inst, k), 0)
            yield from self._wait_ctrl(("bar", inst, k), 1,
                                       f"barrier {inst} round {k}")

    def _barrier_reduce_bcast(self, inst: int):
        w, net, P = self.world, self.world.net, self.world.npes
        root = w.barrier_root
        if self.rank != root:
            yield _Advance(net.o_s)
            w._send_ctrl(self.rank, root, ("bar_red", inst), 0)
            yield from self._wait_ctrl(("bar_rel", inst), 1,
                                       f"barrier {inst} release")
        else:
            yield from self._wait_ctrl(("bar_red", inst), P - 1,
                                       f"barrier {inst} reduce")
        for dst in _bcast_children(BCAST_BINOMIAL, self.rank, root, P):
            yield _Advance(net.o_s)
            w._send_ctrl(self.rank, dst, ("bar_rel", inst), 0)

    def broadcast(self, root: int, offset: int, nbytes: int):
        """Broadcast [offset, offset+nbytes) from `root`; a bad root or range
        raises at the call."""
        w = self.world
        if not 0 <= root < w.npes:
            raise ValueError(f"invalid broadcast root {root}")
        w._check_range(self.rank, offset, nbytes)
        return self._collective(
            ("bcast", root), tr.BCAST_ENTER, tr.BCAST_EXIT,
            w.trace.bcast_instances, {"root": root},
            partial(self._bcast_tree, root, offset, nbytes))

    def _collective(self, signature: tuple, enter: str, leave: str,
                    table: dict, row: dict, body: Callable[[int], Generator]):
        """Run `body(inst)` as this PE's collective call number `inst`,
        between its enter and exit trace entries; `table` gets the instance's
        row (`row` plus per-PE enter and exit times) on entry. Every PE's
        call number `inst` must have the same `signature`. A one-PE world
        skips `body`."""
        w = self.world
        inst = w._coll_count[self.rank]
        w._coll_count[self.rank] += 1
        first = w._coll_sig.setdefault(inst, signature)
        if first != signature:
            raise CollectiveMismatchError(
                f"collective #{inst}: PE {self.rank} called {signature}, "
                f"others called {first}")
        oid = f"{signature[0]}{inst}"
        w._trace(enter, self.rank, oid)
        rec = table.setdefault(inst, {**row, "enter": {}, "exit": {}})
        rec["enter"][self.rank] = w.now
        if w.npes > 1:
            yield from body(inst)
        w._trace(leave, self.rank, oid)
        rec["exit"][self.rank] = w.now

    def _bcast_tree(self, root: int, offset: int, nbytes: int, inst: int):
        """Wait for the data from the parent, then send it to each child."""
        w, net, P = self.world, self.world.net, self.world.npes
        key = ("bc", inst)
        if self.rank != root:
            yield from self._wait_ctrl(key, 1, f"bcast {inst} data")
        last_dep = w.now
        for dst in _bcast_children(w.bcast_topology, self.rank, root, P):
            yield _Advance(net.o_s + net.G * nbytes)
            last_dep = self._send_payload(dst, key, offset, nbytes)
        if last_dep > w.now:
            yield _Advance(last_dep - w.now)

    def _send_payload(self, dst: int, key, offset: int, nbytes: int) -> float:
        """Inject one broadcast data message; returns its departure."""
        w = self.world
        data = w._take(self.rank, offset, nbytes)

        def deliver():
            w._write(dst, offset, data)
            w._heap_written(dst, offset, nbytes)
            w._mail_deliver(dst, key)

        return w._inject(self.rank, w.now, 0, deliver)

    # -- global locks ---------------------------------------------------------

    def lock_set(self, offset: int, home: int = 0):
        w = self.world
        lk = w._lock(home, offset)
        oid = f"lock-{home}-{offset}"
        done = _Signal()
        rank = self.rank

        def req_arrive():
            if lk.holder is None:
                w._grant(lk, home, oid, rank, done)
            else:
                lk.queue.append((rank, done))

        w._inject(rank, w.now + w.net.o_s, 0, req_arrive)
        yield _Wait(done, f"lock_set {oid}")

    def lock_test(self, offset: int, home: int = 0):
        w = self.world
        lk = w._lock(home, offset)
        oid = f"lock-{home}-{offset}"
        done = _Signal()
        rank = self.rank

        def serve():
            if lk.holder is not None:
                return False
            lk.holder = rank
            w._trace(tr.LOCK_ACQUIRED, rank, oid)
            return True

        w._round_trip(rank, home, w.now + w.net.o_s, 0, serve, 0,
                      partial(w._fire, done))
        return (yield _Wait(done, f"lock_test {oid}"))

    def lock_clear(self, offset: int, home: int = 0):
        w = self.world
        lk = w._lock(home, offset)
        if lk.holder != self.rank:
            raise LockError(
                f"PE {self.rank} clearing lock ({home},{offset}) held by {lk.holder}")
        oid = f"lock-{home}-{offset}"
        done = _Signal()
        rank = self.rank

        def serve():
            w._trace(tr.LOCK_RELEASED, rank, oid)
            if lk.queue:
                w._grant(lk, home, oid, *lk.queue.popleft())
            else:
                lk.holder = None

        w._round_trip(rank, home, w.now + w.net.o_s, 0, serve, 0,
                      partial(w._fire, done))
        yield _Wait(done, f"lock_clear {oid}")

    # -- control-message plumbing -----------------------------------------------

    def _wait_ctrl(self, key, need: int, why: str):
        w = self.world
        mail = w._mail[self.rank]
        if mail.get(key, 0) >= need:
            mail[key] -= need
            return
        sig = _Signal()
        w._mail_waiters[self.rank].setdefault(key, []).append((need, sig))
        yield _Wait(sig, why)


class PgasWorld:
    """The simulated machine: PEs, symmetric heap, NIC queues, trace.

    `heap` maps each PE to its zeroed `heap_size`-byte heap, allocated on
    first lookup: a world that never touches memory (a template copied by
    `fresh`, a barrier-only run) holds none. From `PER_PE_HEAP_MIN` bytes
    up a run holds one heap per PE that it addresses; below it, every PE's.
    """

    def __init__(self, npes: int, net: NetworkModel, clock: ClockModel | None = None,
                 heap_size: int = DEFAULT_HEAP_SIZE,
                 bcast_topology: str = BCAST_BINOMIAL,
                 barrier_algo: str = BARRIER_DISSEMINATION,
                 barrier_root: int = 0):
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
        if heap_size < 0:
            raise ValueError("heap_size must be >= 0")
        self.npes = npes
        self.net = net
        self.clock = clock
        self.heap_size = heap_size
        self.bcast_topology = bcast_topology
        self.barrier_algo = barrier_algo
        self.barrier_root = barrier_root

        self.heap: dict[int, bytearray] = _Heaps(heap_size, npes)
        self._loans: set[_Loan] = set()  # lent payloads not yet landed
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
                         barrier_root=self.barrier_root)

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
                            partial(self._mail_deliver, dst, key))

    def _round_trip(self, src: int, target: int, t_ready: float,
                    req_bytes: int, serve: Callable[[], object],
                    reply_bytes: int, reply: Callable[[object], None]):
        """One request/response pair: a request leaves `src`'s NIC no
        earlier than `t_ready`; on its arrival `target` runs `serve()` and,
        one send overhead later, sends the value back, where `reply(value)`
        gets it."""
        if not 0 <= target < self.npes:
            raise ValueError(f"unknown pe {target}")

        def arrive():
            self._inject(target, self.now + self.net.o_s, reply_bytes,
                         partial(reply, serve()))

        self._inject(src, t_ready, req_bytes, arrive)

    # -- RMA -------------------------------------------------------------------

    def _post_rma(self, rank: int, src_pe: int, src: int, dst_pe: int,
                  dst: int, nbytes: int) -> _OpState:
        """Check an RMA op's source and destination ranges, then record its
        POST by `rank`; returns the new op."""
        self._check_range(src_pe, src, nbytes)
        self._check_range(dst_pe, dst, nbytes)
        op = _OpState(f"op{self._next_op}")
        self._next_op += 1
        self._trace(tr.POST, rank, op.op_id)
        return op

    def _send_put(self, op: _OpState, rank: int, src: int, target: int,
                  offset: int, nbytes: int, ser_bytes: int):
        """Take `rank`'s source bytes now and inject them towards `target`."""
        data = self._take(rank, src, nbytes)
        self._inject(rank, self.now, ser_bytes,
                     partial(self._land, op, rank, target, offset, data))

    def _land(self, op: _OpState, rank: int, pe: int, offset: int, data):
        """Complete `rank`'s RMA op `op`: write its payload (from `_take`)
        to `pe`'s heap, wake the cells it satisfies and whoever waits for
        the op."""
        self._write(pe, offset, data)
        op.delivered = True
        self._trace(tr.REMOTE_DELIVERED, rank, op.op_id)
        self._heap_written(pe, offset, len(data))
        self._fire(op.done)

    def _mail_deliver(self, dst: int, key):
        mail = self._mail[dst]
        count = mail[key] = mail.get(key, 0) + 1
        waiters = self._mail_waiters[dst].get(key)
        if not waiters:
            return
        for i, (need, sig) in enumerate(waiters):
            if count >= need:
                mail[key] = count - need
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
        self._write(pe, offset, _INT.pack(value))

    def _take(self, pe: int, offset: int, nbytes: int):
        """The payload of `pe`'s `nbytes` heap bytes at `offset`, as they
        read now: a copy below `LEND_MIN` bytes, a loan from there up."""
        if nbytes < LEND_MIN:
            return self.heap[pe][offset:offset + nbytes]
        loan = _Loan(pe, offset, offset + nbytes)
        self._loans.add(loan)
        return loan

    def _write(self, pe: int, offset: int, data):
        """Write `data` (bytes, or a payload from `_take`) to `pe`'s heap at
        `offset`. Every loan whose source range the write overlaps first
        gets its own copy; that includes a lent `data` whose source and
        destination overlap, so no copy runs from a range onto itself."""
        heap = self.heap[pe]
        end = offset + len(data)
        loans = self._loans
        if loans:
            for loan in [lo for lo in loans if lo.pe == pe
                         and lo.offset < end and offset < lo.end]:
                loan.data = heap[loan.offset:loan.end]
                loans.remove(loan)
        if type(data) is _Loan:
            loan, data = data, data.data
            if data is None:
                # a bytearray slice assignment would copy a view first
                loans.remove(loan)
                memoryview(heap)[offset:end] = memoryview(
                    self.heap[loan.pe])[loan.offset:loan.end]
                return
        heap[offset:end] = data

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

    def _lock(self, home: int, offset: int) -> _LockState:
        if not 0 <= home < self.npes:
            raise LockError(f"invalid lock home PE {home}")
        self._check_range(home, offset, INT_SIZE)
        return self._locks.setdefault((home, offset), _LockState())

    def _grant(self, lk: _LockState, home: int, oid: str, rank: int,
               granted: _Signal):
        """Hand lock `oid` at `home` to `rank` and send it the grant."""
        lk.holder = rank
        self._trace(tr.LOCK_ACQUIRED, rank, oid)
        self._inject(home, self.now + self.net.o_s, 0,
                     partial(self._fire, granted))

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


class TimingStrategy(Enum):
    GLOBAL_LOOP = "global_loop"      # one timer pair outside the loop
    PER_ITERATION = "per_iteration"  # timer pair inside every iteration


def timed_loop(pe: Pe, body: Callable[[int], Generator], iters: int,
               strategy: TimingStrategy = TimingStrategy.GLOBAL_LOOP,
               timed: bool = True):
    """Run `body(i)` for i in range(iters); returns the mean local time per
    iteration. An untimed PE reads no timer, so it pays no timer overhead,
    and returns None."""
    if not timed:
        for i in range(iters):
            yield from body(i)
        return None
    if strategy is TimingStrategy.PER_ITERATION:
        total = 0.0
        for i in range(iters):
            t1 = yield from pe.stamp_begin()
            yield from body(i)
            t2 = yield from pe.stamp_end()
            total += t2 - t1
        return total / iters
    t1 = yield from pe.stamp_begin()
    for i in range(iters):
        yield from body(i)
    t2 = yield from pe.stamp_end()
    return (t2 - t1) / iters


@dataclass
class Measurement:
    """One measured per-call time and the conditions under which it holds.

    `result` is the time per call over `iterations` timed calls. `flags`
    name a doubtful result (`unstable`: a difference clamped at zero, see
    `clamped`; `invalid`: most windows overran), `components` hold the
    terms it was derived from, `per_task` a per-PE estimate, `discarded`
    the overrun windows, and `world` the run, kept only where trace checks
    need it.
    """
    result: float
    iterations: int
    flags: list[str] = field(default_factory=list)
    components: dict[str, float] = field(default_factory=dict)
    per_task: dict[int, float] = field(default_factory=dict)
    discarded: int = 0
    world: PgasWorld | None = None

    @classmethod
    def clamped(cls, result: float, iterations: int, **fields) -> "Measurement":
        """A measurement whose `result` is a difference of timings: a
        negative one is reported as 0 and flagged `unstable`."""
        if result < 0:
            return cls(0.0, iterations, ["unstable"], **fields)
        return cls(result, iterations, **fields)
