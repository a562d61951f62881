"""Deterministic discrete-event simulator of an OpenSHMEM-like runtime.

PE programs are generator functions over a `Pe` handle; they run as
cooperatively scheduled logical processes whose communication costs follow
the NetworkModel.  Every event of interest is logged to a GroundTruthTrace,
which measurement code treats as the oracle.

Scheduling orders `(time, seq, rank, value)` entries by time, then by
insertion sequence number, so a given (config, seed, programs) triple
always replays to an identical trace. Entries live in two queues: a heapq
of timed ones (NIC deliveries, PE advances) and a FIFO of wakes, each
queued at the current time and so already in order. `run` pops whichever
head is smaller, which is the order one heap of both would give, without a
heap push and pop per wake. An entry with `rank >= 0` resumes that PE's
generator by sending it `value`; one with `rank == -1` calls `value()`, a
NIC callback (a delivery, a served request). No closure is built per PE
step.

Only generators reach `_resume`: `run` wraps a program that returns a
plain iterator or None once, so each step is one `send` and one type check
of the yielded request. A PE yields either a number, the seconds of
compute it advances by, or a `_Wait`; anything else is an error. An
advance that ends strictly before the timed queue's head, with no wake
queued, continues at once, without a push and a pop; one that ends at the
head's time or later is queued, so an event queued earlier at the same
time still runs first. A `_Wait` carries its reason as a format string and
arguments, formatted only for a deadlock report.

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
`PgasWorld._grant`, and `Pe._enter` opens each barrier and broadcast.
A barrier or broadcast call runs as one generator. Every control message
of every collective lands in the receiver's mailbox, a count per key
(`_send_ctrl` or `_send_payload`, then `_mail_deliver`). A PE that finds
too few takes its claim out of the count (`_claim_mail`), so a negative
count means its owner is blocked there, and the message that brings it to
zero wakes the owner. Every blocked PE is resumed the same way, by one
`_wake` from what it waits for: a mailbox count, the landing of an RMA op
it waits on (`_OpState.waited`), a reply or lock grant sent to it, or the
write that satisfies its one cell wait (`_cell_wait`). A blocking call's
result is the value its wait resumes with.

The measurement functions share one skeleton: `run_fresh` runs a program
on a fresh world, `timed_loop` times a loop of calls with either
`TimingStrategy`, and `Measurement.clamped` reports a difference of
timings, clamped at zero.
"""

from __future__ import annotations

import heapq
import numbers
import operator
import random
import struct
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from types import GeneratorType
from typing import Callable, Generator, Iterable

from .netmodel import (ClockModel, NetworkModel, ProgressMode,
                       PutReturnPolicy, ceil_log2)
from . import trace as tr
from .trace import GroundTruthTrace


class SimulationError(RuntimeError):
    pass


class DeadlockError(SimulationError):
    """Event queue drained while PEs were still blocked. `blocked` maps
    each blocked PE to its wait reason (a string, or a wait that renders
    as one)."""

    def __init__(self, blocked: dict[int, object]):
        self.blocked = {pe: str(why) for pe, why in blocked.items()}
        detail = "; ".join(f"PE {pe}: {why}"
                           for pe, why in sorted(self.blocked.items()))
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


class _Wait:
    """A PE's request to block. The PE has arranged its own wake-up
    before it yields this: whatever it waits for calls `PgasWorld._wake`
    on it. The reason is `fmt` formatted with `args`, built only when a
    deadlock reports it."""
    __slots__ = ("fmt", "args")

    def __init__(self, fmt: str, *args):
        self.fmt = fmt
        self.args = args

    def __str__(self) -> str:
        return self.fmt.format(*self.args)


class _OpState:
    __slots__ = ("op_id", "delivered", "waited", "deferred")

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.delivered = False
        self.waited = False  # set when its PE blocks until it lands
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
        self.queue: deque[int] = deque()  # ranks waiting in lock_set


@lru_cache(maxsize=1 << 12)
def _bcast_children(topology: str, rank: int, root: int,
                    size: int) -> tuple[int, ...]:
    """The PEs that `rank` sends to in a broadcast tree rooted at `root`.

    A linear tree's root sends to every other PE in rank order. In a
    binomial tree, the PE at relative rank `rel` sends to `rel + 2**k` for
    each bit k below its lowest set bit (for the root, below `size`),
    highest first.
    """
    if topology == BCAST_LINEAR:
        if rank != root:
            return ()
        return tuple(dst for dst in range(size) if dst != root)
    rel = (rank - root) % size
    low = rel & -rel if rel else 1 << (size - 1).bit_length()
    return tuple((rel + (low >> k) + root) % size
                 for k in range(1, low.bit_length())
                 if rel + (low >> k) < size)


class Pe:
    """Per-PE handle passed to programs; all ops are generators."""

    def __init__(self, world: "PgasWorld", rank: int):
        self.world = world
        self.rank = rank

    # -- local compute and timing -------------------------------------------

    def advance(self, dt: float):
        """Burn `dt` seconds of simulated compute."""
        if dt > 0:
            yield dt

    def stamp_begin(self):
        """Sample the local clock, then charge the timer-read overhead."""
        w = self.world
        t = w.clock.local_time(self.rank, w.now)
        yield w.clock.timer_overhead
        return t

    def stamp_end(self):
        """Charge the timer-read overhead, then sample the local clock.

        A begin/end stamp pair therefore brackets the full wall cost of both
        timer calls inside the measured window, which is what a per-iteration
        timing loop pays for in practice.
        """
        w = self.world
        yield w.clock.timer_overhead
        return w.clock.local_time(self.rank, w.now)

    def busy_wait(self, seconds: float):
        """Spin for >= `seconds` in whole work units; returns actual elapsed."""
        if seconds <= 0:
            return 0.0
        units = -int(-seconds / BUSY_WAIT_UNIT // 1)  # ceil
        dt = units * BUSY_WAIT_UNIT
        yield dt
        return dt

    def advance_to_local_time(self, t_local: float):
        """Spin until the local clock reads `t_local`; True if already past."""
        w = self.world
        target = w.clock.global_time(self.rank, t_local)
        if target <= w.now:
            return True
        yield target - w.now
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
        yield net.o_s + net.G * nbytes
        w._send_put(op, self.rank, src, target, offset, nbytes, 0)
        w._trace(tr.LOCAL_COMPLETE, self.rank, op.op_id)
        if net.put_return_policy is PutReturnPolicy.REMOTE_COMPLETION:
            if not op.delivered:
                op.waited = True
                yield _Wait("put {} remote completion", op.op_id)
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
        op.waited = True
        yield _Wait("get {} completion", op.op_id)
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
        yield w.net.o_s
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
                op.waited = True
                yield _Wait("quiet on {}", op.op_id)
        yield w.net.q0
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
            w._wake(rank, pre)

        w._round_trip(rank, target, w.now + w.net.o_s, INT_SIZE, apply,
                      INT_SIZE, respond)
        return (yield _Wait("fetch_inc {} response", op.op_id))

    def wait_until(self, offset: int, cmp: str, value: int):
        """Suspend until the local integer cell satisfies `cmp value`."""
        w = self.world
        fn = _CMP[cmp]
        if fn(w._heap_read_int(self.rank, offset), value):
            return
        w._cell_wait[self.rank] = (offset, fn, value)
        yield _Wait("wait_until heap[{}] {} {}", offset, cmp, value)

    def fetch_remote_clock(self, target: int):
        """Round-trip read of the target's local clock at the serve instant."""
        w = self.world
        w._round_trip(self.rank, target, w.now + w.net.o_s, 0,
                      lambda: w.clock.local_time(target, w.now), INT_SIZE,
                      partial(w._wake, self.rank))
        return (yield _Wait("remote clock fetch"))

    # -- collectives -------------------------------------------------------------

    def barrier(self):
        """Block until every PE has entered this barrier."""
        w, rank, P = self.world, self.rank, self.world.npes
        inst, oid, exits = self._enter("barrier", w.barrier_root,
                                       tr.BARRIER_ENTER,
                                       w.trace.barrier_instances)
        if P > 1:
            o_s = w.net.o_s
            if w.barrier_algo == BARRIER_DISSEMINATION:
                for k in range(ceil_log2(P)):
                    key = ("bar", inst, k)
                    yield o_s
                    w._send_ctrl(rank, (rank + (1 << k)) % P, key)
                    if not w._claim_mail(rank, key, 1):
                        yield _Wait("barrier {} round {}", inst, k)
            else:
                root = w.barrier_root
                release = ("bar_rel", inst)
                if rank != root:
                    yield o_s
                    w._send_ctrl(rank, root, ("bar_red", inst))
                    if not w._claim_mail(rank, release, 1):
                        yield _Wait("barrier {} release", inst)
                elif not w._claim_mail(rank, ("bar_red", inst), P - 1):
                    yield _Wait("barrier {} reduce", inst)
                for dst in _bcast_children(BCAST_BINOMIAL, rank, root, P):
                    yield o_s
                    w._send_ctrl(rank, dst, release)
        w._trace(tr.BARRIER_EXIT, rank, oid)
        exits[rank] = w.now

    def broadcast(self, root: int, offset: int, nbytes: int):
        """Broadcast [offset, offset+nbytes) from `root`; a bad root or range
        raises at the call."""
        w = self.world
        if not 0 <= root < w.npes:
            raise ValueError(f"invalid broadcast root {root}")
        w._check_range(self.rank, offset, nbytes)
        return self._broadcast(root, offset, nbytes)

    def _broadcast(self, root: int, offset: int, nbytes: int):
        """Wait for the data from the parent, then send it to each child."""
        w, rank, P = self.world, self.rank, self.world.npes
        inst, oid, exits = self._enter("bcast", root, tr.BCAST_ENTER,
                                       w.trace.bcast_instances)
        if P > 1:
            key = ("bc", inst)
            if rank != root and not w._claim_mail(rank, key, 1):
                yield _Wait("bcast {} data", inst)
            last_dep, cost = w.now, w.net.o_s + w.net.G * nbytes
            for dst in _bcast_children(w.bcast_topology, rank, root, P):
                yield cost
                last_dep = w._send_payload(rank, dst, key, offset, nbytes)
            if last_dep > w.now:
                yield last_dep - w.now
        w._trace(tr.BCAST_EXIT, rank, oid)
        exits[rank] = w.now

    def _enter(self, kind: str, root: int, enter: str, table: dict):
        """Begin this PE's next collective call, a `kind` rooted at `root`,
        and trace its `enter`; returns the call number `inst`, its op id
        and the instance's per-PE exit times. The first PE to make call
        `inst` builds its op id and its row in `table` (a broadcast's row
        also holds its root); every PE's call `inst` must match it."""
        w, rank = self.world, self.rank
        inst = w._coll_count[rank]
        w._coll_count[rank] = inst + 1
        known = w._colls.get(inst)
        if known is None:
            row = {"root": root} if kind == "bcast" else {}
            enters, exits = row["enter"], row["exit"] = {}, {}
            table[inst] = row
            known = w._colls[inst] = (kind, root, f"{kind}{inst}", enters,
                                      exits)
        elif known[0] != kind or known[1] != root:
            raise CollectiveMismatchError(
                f"collective #{inst}: PE {rank} called {(kind, root)}, "
                f"others called {known[:2]}")
        oid = known[2]
        w._trace(enter, rank, oid)
        known[3][rank] = w.now
        return inst, oid, known[4]

    # -- global locks ---------------------------------------------------------

    def lock_set(self, offset: int, home: int = 0):
        w = self.world
        lk = w._lock(home, offset)
        oid = f"lock-{home}-{offset}"
        rank = self.rank

        def req_arrive():
            if lk.holder is None:
                w._grant(lk, home, oid, rank)
            else:
                lk.queue.append(rank)

        w._inject(rank, w.now + w.net.o_s, 0, req_arrive)
        yield _Wait("lock_set {}", oid)

    def lock_test(self, offset: int, home: int = 0):
        w = self.world
        lk = w._lock(home, offset)
        oid = f"lock-{home}-{offset}"
        rank = self.rank

        def serve():
            if lk.holder is not None:
                return False
            lk.holder = rank
            w._trace(tr.LOCK_ACQUIRED, rank, oid)
            return True

        w._round_trip(rank, home, w.now + w.net.o_s, 0, serve, 0,
                      partial(w._wake, rank))
        return (yield _Wait("lock_test {}", oid))

    def lock_clear(self, offset: int, home: int = 0):
        w = self.world
        lk = w._lock(home, offset)
        if lk.holder != self.rank:
            raise LockError(
                f"PE {self.rank} clearing lock ({home},{offset}) held by {lk.holder}")
        oid = f"lock-{home}-{offset}"
        rank = self.rank

        def serve():
            w._trace(tr.LOCK_RELEASED, rank, oid)
            if lk.queue:
                w._grant(lk, home, oid, lk.queue.popleft())
            else:
                lk.holder = None

        w._round_trip(rank, home, w.now + w.net.o_s, 0, serve, 0,
                      partial(w._wake, rank))
        yield _Wait("lock_clear {}", oid)


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
        self._queue: list = []  # timed entries, a heapq
        self._ready: deque = deque()  # wakes, queued at the time they fire
        self._seq = 0
        self._nic_free = [0.0] * npes
        self._random = random.Random(clock.jitter_seed).random
        self._pending: list[dict[str, _OpState]] = [dict() for _ in range(npes)]
        # per PE: mail key -> messages there, or minus those its owner,
        # blocked there, still waits for; a count of 0 is no key. This one
        # mailbox holds every barrier's and broadcast's messages.
        self._mail: list[dict] = [dict() for _ in range(npes)]
        # per PE: the (offset, cmp, value) its wait_until blocks on, or None
        self._cell_wait: list[tuple | None] = [None] * npes
        self._locks: dict[tuple[int, int], _LockState] = {}
        self._coll_count = [0] * npes
        # collective call number -> (kind, root, op id, enters, exits)
        self._colls: dict[int, tuple] = {}
        self._next_op = 0
        self._next_quiet = 0
        self._sends: list = []  # each PE generator's `send`
        # each PE's last wait; None before its first and once it is done
        self._waits: list[_Wait | None] = []
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
            self._waits.append(None)
            self._seq += 1
            self._ready.append((0.0, self._seq, rank, None))
        queue, ready, resume = self._queue, self._ready, self._resume
        pop, popleft = heapq.heappop, ready.popleft
        while True:
            # seq numbers are unique, so tuples compare as (time, seq)
            if ready:
                entry = (pop(queue) if queue and queue[0] < ready[0]
                         else popleft())
            elif queue:
                entry = pop(queue)
            else:
                break
            t, _, rank, value = entry
            self.now = t
            if rank < 0:
                value()
            else:
                resume(rank, value)
        # both queues are empty, so no PE is computing: each one not done
        # is blocked in the wait it yielded last
        blocked = {pe: wait for pe, wait in enumerate(self._waits)
                   if wait is not None}
        if blocked:
            raise DeadlockError(blocked)
        return self.trace

    def _resume(self, rank: int, value):
        send, queue, ready = self._sends[rank], self._queue, self._ready
        while True:
            try:
                req = send(value)
            except StopIteration as stop:
                self._waits[rank] = None
                self.returned[rank] = stop.value
                return
            value = None
            kind = type(req)
            if kind is _Wait:
                self._waits[rank] = req
                return
            if kind is not float and (kind is bool or not isinstance(
                    req, numbers.Real)):
                raise SimulationError(
                    f"PE {rank} yielded unexpected value {req!r}")
            if req <= 0:
                continue
            t = self.now + req
            if not ready and (not queue or t < queue[0][0]):
                self.now = t  # nothing else happens before t
                continue
            self._seq += 1
            heapq.heappush(queue, (t, self._seq, rank, None))
            return

    def _wake(self, rank: int, value=None):
        """Queue `rank` to resume now, with `value`."""
        self._seq += 1
        self._ready.append((self.now, self._seq, rank, value))

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

    def _send_ctrl(self, src: int, dst: int, key):
        """Send an empty control message for `dst`'s mailbox `key`."""
        self._inject(src, self.now, 0, partial(self._mail_deliver, dst, key))

    def _send_payload(self, src: int, dst: int, key, offset: int,
                      nbytes: int) -> float:
        """Send `src`'s bytes [offset, offset+nbytes) to the same range of
        `dst`'s heap, then `dst`'s mailbox `key`; returns the departure."""
        data = self._take(src, offset, nbytes)
        return self._inject(src, self.now, 0, partial(
            self._deliver_payload, dst, key, offset, data))

    def _deliver_payload(self, dst: int, key, offset: int, data):
        self._write(dst, offset, data)
        self._heap_written(dst, offset, len(data))
        self._mail_deliver(dst, key)

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
        to `pe`'s heap, wake the cell wait it satisfies, and wake `rank` if
        it is blocked on the op."""
        self._write(pe, offset, data)
        op.delivered = True
        self._trace(tr.REMOTE_DELIVERED, rank, op.op_id)
        self._heap_written(pe, offset, len(data))
        if op.waited:
            self._wake(rank)

    def _mail_deliver(self, dst: int, key):
        """Count one message in `dst`'s mailbox `key`; wake `dst` if it is
        the last one `dst` waits for there."""
        mail = self._mail[dst]
        count = mail.get(key, 0) + 1
        if count:
            mail[key] = count
        else:
            del mail[key]
            self._wake(dst)

    def _claim_mail(self, pe: int, key, need: int) -> bool:
        """Take `need` messages from `pe`'s mailbox `key`: True if they are
        there; if not, `pe` is to block until they come."""
        mail = self._mail[pe]
        count = mail.get(key, 0) - need
        if count:
            mail[key] = count
        else:
            del mail[key]
        return count >= 0

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
        """Wake `pe` if a write to its [offset, offset+nbytes) satisfies
        the cell wait it is blocked in."""
        cell = self._cell_wait[pe]
        if cell is None:
            return
        woff, fn, value = cell
        if (woff < offset + nbytes and offset < woff + INT_SIZE
                and fn(self._heap_read_int(pe, woff), value)):
            self._cell_wait[pe] = None
            self._wake(pe)

    # -- collectives / locks -------------------------------------------------------

    def _lock(self, home: int, offset: int) -> _LockState:
        if not 0 <= home < self.npes:
            raise LockError(f"invalid lock home PE {home}")
        self._check_range(home, offset, INT_SIZE)
        return self._locks.setdefault((home, offset), _LockState())

    def _grant(self, lk: _LockState, home: int, oid: str, rank: int):
        """Hand lock `oid` at `home` to `rank` and send it the grant."""
        lk.holder = rank
        self._trace(tr.LOCK_ACQUIRED, rank, oid)
        self._inject(home, self.now + self.net.o_s, 0,
                     partial(self._wake, rank))

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
