"""Broadcast measurement algorithms.

Five strategies: the naive timed loop (kept as the pipelining-prone
baseline), barrier-separated with barrier-cost subtraction, window
synchronization around each call, rotating roots in one window, and the
one-sided acknowledgment protocol in which each non-root PE in turn
acknowledges its part of the broadcast to the root through an atomic
fetch-and-increment consumed by a wait-until.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .pgas import INT_SIZE, PgasWorld
from .syncschemes import (SyncState, measure_barrier_time,
                          offset_probe_fragment, start_synchronization,
                          stop_synchronization)

BUF_OFFSET = 0
ACK_OFFSET = 1 << 20


def heap_footprint(nbytes: int) -> int:
    """Heap bytes a plain broadcast measurement of `nbytes` addresses."""
    return nbytes


def sk_heap_footprint(nbytes: int) -> int:
    """Heap bytes `measure_bcast_sk` addresses: the payload and the ack cell."""
    return max(nbytes, ACK_OFFSET + INT_SIZE)


class BcastAlgo(Enum):
    NAIVE_LOOP = "naive"
    BARRIER_SYNC = "barrier"
    ACTIVE_SYNC = "sync"
    ROUNDS = "rounds"
    SK = "sk"


@dataclass
class BcastMeasurement:
    algo: BcastAlgo
    nbytes: int
    iterations: int
    result: float
    per_task: dict[int, float] = field(default_factory=dict)
    discarded: int = 0
    flags: list[str] = field(default_factory=list)
    world: PgasWorld | None = None  # the run, kept for trace-based checks


def ground_truth_bcast_span(world: PgasWorld, nbytes: int, root: int = 0) -> float:
    """True span of one isolated broadcast with simultaneous entry."""
    w = world.fresh()

    def prog(pe):
        yield from pe.broadcast(root, BUF_OFFSET, nbytes)

    trace = w.run([prog] * w.npes)
    return trace.bcast_span(0)


def measure_bcast_naive(world: PgasWorld, nbytes: int,
                        iters: int = 32) -> BcastMeasurement:
    """Global timer on the root around a loop of broadcasts; biased low when
    the topology lets consecutive calls pipeline."""
    w = world.fresh()
    out = {}

    def prog(pe):
        yield from pe.barrier()
        if pe.rank == 0:
            t1 = yield from pe.stamp_begin()
        for _ in range(iters):
            yield from pe.broadcast(0, BUF_OFFSET, nbytes)
        if pe.rank == 0:
            t2 = yield from pe.stamp_end()
            out["mean"] = (t2 - t1) / iters

    w.run([prog] * w.npes)
    return BcastMeasurement(BcastAlgo.NAIVE_LOOP, nbytes, iters, out["mean"])


def measure_bcast_barrier(world: PgasWorld, nbytes: int, iters: int = 32,
                          barrier_iters: int = 100) -> BcastMeasurement:
    """Separate consecutive broadcasts with a barrier and subtract the
    separately calibrated barrier cost."""
    t_barrier = measure_barrier_time(world, barrier_iters)
    w = world.fresh()
    out = {}

    def prog(pe):
        yield from pe.barrier()
        total = 0.0
        for _ in range(iters):
            if pe.rank == 0:
                t1 = yield from pe.stamp_begin()
            yield from pe.broadcast(0, BUF_OFFSET, nbytes)
            yield from pe.barrier()
            if pe.rank == 0:
                t2 = yield from pe.stamp_end()
                total += t2 - t1
        if pe.rank == 0:
            out["mean"] = total / iters

    w.run([prog] * w.npes)
    mean = out["mean"] - t_barrier
    flags = []
    if mean < 0:
        mean = 0.0
        flags.append("unstable")
    return BcastMeasurement(BcastAlgo.BARRIER_SYNC, nbytes, iters, mean,
                            flags=flags)


def _pilot_window(world: PgasWorld, nbytes: int) -> float:
    pilot = measure_bcast_naive(world, nbytes, iters=8)
    return 10.0 * max(pilot.result, 1e-9)


def _aligned_start(pe, state: SyncState, probe_reps: int):
    """Estimate clock offsets, let PE 0 schedule the first slot comfortably
    after the alignment barrier, then align all PEs in that barrier."""
    yield from offset_probe_fragment(pe, state, probe_reps)
    if pe.rank == 0:
        now_local = yield from pe.read_timer()
        state.slot0 = now_local + state.window_len + 1e-3
    yield from pe.barrier()


def measure_bcast_sync(world: PgasWorld, nbytes: int, iters: int = 32,
                       window_len: float | None = None,
                       probe_reps: int = 16) -> BcastMeasurement:
    """Each iteration bracketed by window start/stop synchronization."""
    if window_len is None:
        window_len = _pilot_window(world, nbytes)
    w = world.fresh()
    state = SyncState(offsets=[0.0] * w.npes, window_len=window_len)
    t1s: dict[int, list] = {pe: [] for pe in range(w.npes)}
    t2s: dict[int, list] = {pe: [] for pe in range(w.npes)}
    overruns: dict[int, list] = {pe: [] for pe in range(w.npes)}

    def prog(pe):
        yield from _aligned_start(pe, state, probe_reps)
        for i in range(iters):
            t1, over = yield from start_synchronization(pe, state, i)
            yield from pe.broadcast(0, BUF_OFFSET, nbytes)
            t2 = yield from stop_synchronization(pe, state, i)
            t1s[pe.rank].append(t1)
            t2s[pe.rank].append(t2)
            overruns[pe.rank].append(over)

    w.run([prog] * w.npes)
    spans, discarded = [], 0
    for i in range(iters):
        if any(overruns[pe][i] for pe in range(w.npes)):
            discarded += 1
            continue
        spans.append(max(t2s[pe][i] - t1s[pe][i] for pe in range(w.npes)))
    flags = []
    if discarded > iters // 2:
        flags.append("invalid")
    result = sum(spans) / len(spans) if spans else 0.0
    return BcastMeasurement(BcastAlgo.ACTIVE_SYNC, nbytes, iters, result,
                            discarded=discarded, flags=flags)


def measure_bcast_rounds(world: PgasWorld, nbytes: int,
                         window_len: float | None = None,
                         probe_reps: int = 16) -> BcastMeasurement:
    """One synchronized window around a loop of broadcasts with rotating
    root; the window span divided by the PE count."""
    if window_len is None:
        window_len = _pilot_window(world, nbytes) * world.npes
    w = world.fresh()
    state = SyncState(offsets=[0.0] * w.npes, window_len=window_len)
    t1s: dict[int, float] = {}
    t2s: dict[int, float] = {}

    def prog(pe):
        yield from _aligned_start(pe, state, probe_reps)
        t1, _ = yield from start_synchronization(pe, state, 0)
        for root in range(w.npes):
            yield from pe.broadcast(root, BUF_OFFSET, nbytes)
        t2 = yield from stop_synchronization(pe, state, 0)
        t1s[pe.rank] = t1
        t2s[pe.rank] = t2

    w.run([prog] * w.npes)
    result = max(t2s[pe] - t1s[pe] for pe in range(w.npes)) / w.npes
    return BcastMeasurement(BcastAlgo.ROUNDS, nbytes, w.npes, result)


def _ack_round_trip(pe, root: int, task: int):
    """One acknowledgment round trip: root bumps task's ack cell, task bumps
    root's back, and each clears its own; other PEs take no part."""
    if pe.rank == root:
        yield from pe.fetch_inc(task, ACK_OFFSET)
        yield from pe.wait_until(ACK_OFFSET, "eq", 1)
        pe.store_int(ACK_OFFSET, 0)
    elif pe.rank == task:
        yield from pe.wait_until(ACK_OFFSET, "eq", 1)
        pe.store_int(ACK_OFFSET, 0)
        yield from pe.fetch_inc(root, ACK_OFFSET)


def measure_bcast_sk(world: PgasWorld, nbytes: int, M: int = 16,
                     rt1_reps: int | None = None,
                     inter_sleep: float = 0.0) -> BcastMeasurement:
    """Acknowledged broadcast measurement.

    For each non-root task: calibrate the acknowledgment round trip, run a
    warm-up acknowledged broadcast, then time M iterations of broadcast
    plus acknowledgment; the task's broadcast estimate is the per-iteration
    loop time minus the calibrated acknowledgment time.  The reported value
    is the maximum over tasks.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if rt1_reps is None:
        rt1_reps = M
    w = world.fresh()
    root = 0
    per_task: dict[int, float] = {}
    flags: list[str] = []

    def prog(pe):
        rank, P = pe.rank, w.npes
        yield from pe.barrier()
        for task in range(1, P):
            # measure the ack round trip between root and task
            rt1 = 0.0
            if rank in (root, task):
                t1 = yield from pe.stamp_begin()
                for _ in range(rt1_reps):
                    yield from _ack_round_trip(pe, root, task)
                t2 = yield from pe.stamp_end()
                rt1 = (t2 - t1) / rt1_reps
            # warm-up: one acknowledged broadcast
            yield from pe.broadcast(root, BUF_OFFSET, nbytes)
            yield from _ack_round_trip(pe, root, task)
            # measure M acknowledged broadcasts
            t1 = yield from pe.stamp_begin()
            for _ in range(M):
                yield from pe.broadcast(root, BUF_OFFSET, nbytes)
                if rank == root:
                    yield from pe.wait_until(ACK_OFFSET, "eq", 1)
                    pe.store_int(ACK_OFFSET, 0)
                elif rank == task:
                    yield from pe.fetch_inc(root, ACK_OFFSET)
                if inter_sleep > 0:
                    yield from pe.busy_wait(inter_sleep)
            t2 = yield from pe.stamp_end()
            if rank == task:
                rt2 = (t2 - t1) / M
                per_task[task] = rt2 - rt1 - inter_sleep

    w.run([prog] * w.npes)
    if per_task:
        result = max(per_task.values())
        if result < 0:
            result = 0.0
            flags.append("unstable")
    else:
        result = 0.0  # P == 1: no tasks to sweep
    return BcastMeasurement(BcastAlgo.SK, nbytes, M, result,
                            per_task=per_task, flags=flags, world=w)
